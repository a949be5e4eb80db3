#!/usr/bin/env bash
#
# Append one benchmark-trajectory data point to BENCH_campaign.json
# (JSON lines, one object per invocation): wall clock and summary
# metrics of a fixed micro fig4 campaign, plus micro fig20 refresh and
# fig21 subarray sweeps (fields prefixed fig20_ / fig21_). Run it on
# each commit of interest and the file becomes the performance history
# of the campaign layer — wall_seconds tracks executor efficiency,
# job_seconds_total tracks simulator cost, peak_rss_mb (the
# dbpsim_bench process's VmHWM; one process per campaign) tracks
# memory, the gmean metrics catch accuracy drift, and the three result
# digests (digest, fig20_digest, fig21_digest) catch any change at all
# in the simulated results. fig20 and fig21 run with the protocol
# checker on, so the point also certifies the refresh engine and the
# SALP/MASA subsystem were violation-free at this commit. The config
# hash and the host (host_cpu, the /proc/cpuinfo "model name"; nproc)
# are recorded so points from different machine configurations or
# hosts are never compared by accident.
#
# Usage: scripts/bench_trajectory.sh [jobs]
#   jobs   Worker threads for the campaign (default: nproc).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"

# Fixed micro workload: fig4's sweep on a shortened window. Changing
# these invalidates comparability with older lines, so don't.
warmup=500000
measure=1000000
seed=42

# fig20 sweeps 4 refresh modes x 3 schemes and fig21 sweeps 6 salp
# variants x 2 schemes, so they get a shorter window to keep the whole
# trajectory point cheap. Same rule: fixed.
fig20_warmup=200000
fig20_measure=400000

cmake --preset default >/dev/null
cmake --build build -j "$(nproc 2>/dev/null || echo 4)" \
    --target dbpsim_bench >/dev/null

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Each campaign prints "result digest: 0x..." over its jobs and
# summary; the point records all three so digest drift shows up here.
digest() { sed -n 's/^result digest: //p'; }

fig4_digest="$(./build/bench/dbpsim_bench fig4 --jobs="$jobs" \
    --out="$out" --quiet --no-cache warmup="$warmup" \
    measure="$measure" seed="$seed" | digest)"

fig20_digest="$(./build/bench/dbpsim_bench fig20 --jobs="$jobs" \
    --out="$out" --quiet --no-cache warmup="$fig20_warmup" \
    measure="$fig20_measure" seed="$seed" | digest)"

fig21_digest="$(./build/bench/dbpsim_bench fig21 --jobs="$jobs" \
    --out="$out" --quiet --no-cache warmup="$fig20_warmup" \
    measure="$fig20_measure" seed="$seed" | digest)"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A point measured on uncommitted edits is not the commit's.
if ! git diff --quiet HEAD -- 2>/dev/null; then
    commit="$commit-dirty"
fi
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
host_cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo \
    2>/dev/null | head -n 1)"
host_nproc="$(nproc 2>/dev/null || echo 0)"

python3 - "$out/fig4.json" "$out/fig20.json" "$out/fig21.json" \
    "$commit" "$date_utc" "$jobs" "${host_cpu:-unknown}" "$host_nproc" \
    "$fig4_digest" "$fig20_digest" "$fig21_digest" \
    <<'EOF' >>BENCH_campaign.json
import json
import sys

doc = json.load(open(sys.argv[1]))
line = {
    "commit": sys.argv[4],
    "date": sys.argv[5],
    "jobs": int(sys.argv[6]),
    "host_cpu": sys.argv[7],
    "nproc": int(sys.argv[8]),
    "config_hash": doc["config"]["hash"],
    "jobs_count": doc["jobs_count"],
    "wall_seconds": round(doc["wall_seconds"], 3),
    "job_seconds_total": round(doc["job_seconds_total"], 3),
    "peak_rss_mb": round(doc["peak_rss_mb"], 2),
    "digest": sys.argv[9],
    "fig20_digest": sys.argv[10],
    "fig21_digest": sys.argv[11],
}
for key, value in doc["summary"].items():
    line[key] = round(value, 4) if isinstance(value, float) else value

for prefix, path in (("fig20_", sys.argv[2]), ("fig21_", sys.argv[3])):
    sub = json.load(open(path))
    line[prefix + "wall_seconds"] = round(sub["wall_seconds"], 3)
    line[prefix + "peak_rss_mb"] = round(sub["peak_rss_mb"], 2)
    line[prefix + "job_seconds_total"] = round(
        sub["job_seconds_total"], 3)
    violations = sum(
        j.get("check_violations", 0) for j in sub["jobs"].values())
    line[prefix + "check_violations"] = violations
    for key, value in sub["summary"].items():
        if not key.startswith(("gmean_", "ws_gain_pct_",
                               "ipc_gain_pct_")):
            continue
        flat = prefix + key.replace("/", "_").replace("-", "_")
        line[flat] = (round(value, 4)
                      if isinstance(value, float) else value)
print(json.dumps(line))
EOF

tail -n 1 BENCH_campaign.json
