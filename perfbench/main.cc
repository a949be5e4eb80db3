/**
 * @file
 * dbpsim benchmark: host throughput of the simulator and the paper's
 * DBP-vs-UBP outcomes on three workloads (see README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *
 * --trace 0 repeats the workload untraced for about --seconds and
 * prints the end-to-end metrics; --trace 1 alternates untraced and
 * traced repeats and prints the per-layer metrics. Either way every
 * simulated result is checked against runMixJob()/runAloneBaseline()
 * and the last stdout line is the JSON result.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layer_costs.hh"
#include "runner.hh"
#include "sim/baseline.hh"
#include "sim/schemes.hh"

using namespace perfbench;
using namespace dbpsim;

namespace {

/**
 * Set-up passes before each repeat; setup_s is their median. Spread
 * over the whole run, they see the same host as the repeats do.
 */
constexpr int kSetupPassesPerRep = 20;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n"
              << "workloads:";
    for (const auto &n : workloadNames())
        std::cerr << ' ' << n;
    std::cerr << '\n';
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !val.empty();
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (!end || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (key == "--spans") {
            a.spans = val;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!have_seed)
        usage("--seed must be a non-negative integer");
    if (a.seconds <= 0.0)
        usage("--seconds is required");
    return a;
}

/** CPU brand string from cpuid (no file is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
    if (max_ext >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str();
        auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (0 < p <= 1). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

template <class F>
double
medianOf(const std::vector<RepResult> &reps, F &&f)
{
    std::vector<double> v;
    for (const auto &r : reps)
        v.push_back(f(r));
    return median(v);
}

/**
 * Peak resident memory of this process image, from VmHWM. getrusage()'s
 * ru_maxrss would not do: Linux carries it across execve(), so it
 * reports the launcher's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Ordered name -> (value, unit) list, printed and emitted as JSON. */
class MetricSet
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, const std::string &note = "")
    {
        items_.push_back({name, value, unit, note});
    }

    void print(std::ostream &os) const
    {
        for (const auto &m : items_) {
            os << "metric " << m.name << ' ' << num(m.value) << ' '
               << m.unit;
            if (!m.note.empty())
                os << "  (" << m.note << ')';
            os << '\n';
        }
    }

    std::string json() const
    {
        std::ostringstream os;
        os << '{';
        for (std::size_t i = 0; i < items_.size(); ++i)
            os << (i ? ", " : "") << jsonString(items_[i].name)
               << ": {\"value\": " << num(items_[i].value)
               << ", \"unit\": " << jsonString(items_[i].unit) << '}';
        return os.str() + '}';
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Item> items_;
};

/**
 * Compare every run of @p rep with the library's own entry points for
 * the same configuration, mix, scheme and seed.
 */
bool
matchesLibrary(const Workload &w, const RepResult &rep)
{
    AloneBaselineCache baselines;
    bool ok = true;
    auto fail = [&](const RunSpec &r, const std::string &what) {
        std::cout << "MISMATCH " << r.label << ": " << what << '\n';
        ok = false;
    };
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec &r = w.runs[i];
        const RunResult &mine = rep.runs[i];
        if (r.alone()) {
            if (baselines.get(w.rc, r.app).ipc != mine.ipc.at(0))
                fail(r, "alone IPC differs from runAloneBaseline()");
            continue;
        }
        const WorkloadMix &mix = mixByName(r.mix);
        MixResult ref = runMixJob(w.rc, mix, schemeByName(r.scheme),
                                  baselines);
        if (ref.sharedIpc != mine.ipc)
            fail(r, "shared IPCs differ from runMixJob()");
        for (std::size_t a = 0; a < mix.apps.size(); ++a) {
            for (std::size_t j = 0; j < w.runs.size(); ++j)
                if (w.runs[j].app == mix.apps[a] &&
                    rep.runs[j].ipc.at(0) != ref.aloneIpc.at(a))
                    fail(r, "alone IPC of " + mix.apps[a] + " differs");
        }
        if (ref.repartitions != mine.counters.repartitions ||
            ref.pagesMigrated != mine.counters.partPagesMigrated)
            fail(r, "partition activity differs from runMixJob()");
        const std::int64_t violations =
            r.params.protocolCheck
            ? static_cast<std::int64_t>(mine.counters.checkViolations)
            : -1;
        if (ref.checkViolations != violations)
            fail(r, "checker violations differ from runMixJob()");
    }
    return ok;
}

void
printReps(const char *kind, const std::vector<RepResult> &reps)
{
    std::cout << kind << " reps:";
    for (const auto &r : reps)
        std::cout << ' ' << num(r.wallS) << "s/" << num(r.mcyclesPerS())
                  << "Mc/s";
    std::cout << '\n';
}

double
medianMcyclesPerS(const std::vector<RepResult> &reps)
{
    return medianOf(reps, [](const RepResult &r) { return r.mcyclesPerS(); });
}

double
medianWallS(const std::vector<RepResult> &reps)
{
    return medianOf(reps, [](const RepResult &r) { return r.wallS; });
}

/**
 * The end-to-end metrics, from the untraced reps. Host throughput is
 * printed but not among them: on a host whose speed drifts by up to
 * 1.5x for tens of seconds, it spreads across seeds by more than any
 * bound the result format allows (see README.md).
 */
MetricSet
endToEnd(const std::vector<RepResult> &plain, double setup_s)
{
    const Outcomes &o = plain.front().outcomes;
    std::cout << "host sim_mcycles_per_s " << num(medianMcyclesPerS(plain))
              << " Mcycles/s, wall_s " << num(medianWallS(plain))
              << " s  (medians over untraced reps; per-layer "
                 "sim.mcycles_per_s and sim.wall_s)\n";
    MetricSet m;
    m.add("setup_s", setup_s, "s", "median over set-up passes");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("ws", o.ws, "ratio", "DBP");
    m.add("hs", o.hs, "ratio", "DBP");
    m.add("ms", o.ms, "ratio", "DBP");
    m.add("ws_dbp_over_ubp", o.ws / o.wsUbp, "ratio",
          "ws_gain_pct = " + num(o.wsGainPct()) + " %");
    m.add("ms_ubp_over_dbp", o.msUbp / o.ms, "ratio",
          "ms_drop_pct = " + num(o.msDropPct()) + " %");
    m.add("alone_ipc_gmean", o.aloneIpcGmean, "IPC");
    return m;
}

/** The per-layer metrics, from the traced and untraced reps. */
MetricSet
perLayer(const Workload &w, const std::vector<RepResult> &plain,
         const std::vector<RepResult> &traced, double setup_s)
{
    const double clock_ns = clockOverheadNs();
    const Counters &c = plain.front().total;
    const TraceStats &t0 = traced.front().trace;
    const double run_s =
        medianOf(plain, [](const RepResult &r) { return r.runS; });
    const double traced_run_s =
        medianOf(traced, [](const RepResult &r) { return r.runS; });
    const double latency_p50 = c.latencyPercentile(0.5);
    const double mem_cycles = static_cast<double>(c.memCycles);
    const double core_cycles = static_cast<double>(c.coreCycles);

    std::vector<double> slice_us;
    for (const auto &r : traced)
        for (std::int64_t ns : r.trace.sliceNs)
            slice_us.push_back(static_cast<double>(ns) * 1e-3);

    CoreCost core = coreTickCost(
        w, static_cast<Cycle>(latency_p50) * w.rc.base.cpuRatio);
    MemCost mem = memLayerCost(w, ratio(static_cast<double>(c.reads),
                                        mem_cycles),
                               ratio(static_cast<double>(c.writes),
                                     mem_cycles));

    const std::string per_rep = "per rep, " +
        std::to_string(c.runs) + " runs";
    const std::string of_core = "base " + num(core_cycles) +
        " core-cycles";
    const bool cache = w.rc.base.cacheEnabled;

    MetricSet m;
    m.add("trace.records", static_cast<double>(t0.next.calls), "count",
          per_rep);
    m.add("trace.next_s", medianOf(traced, [&](const RepResult &r) {
              return r.trace.next.seconds(clock_ns);
          }), "s", "clock cost " + num(clock_ns) + " ns/call removed");
    m.add("trace.next_share", medianOf(traced, [&](const RepResult &r) {
              return r.trace.next.seconds(clock_ns) / r.runS;
          }), "ratio", "base: traced run_s");

    m.add("core.instructions", static_cast<double>(c.instructions),
          "count", per_rep);
    m.add("core.loads", static_cast<double>(c.loads), "count");
    m.add("core.stores", static_cast<double>(c.stores), "count");
    m.add("core.mshr_merges", static_cast<double>(c.mshrMerges),
          "count");
    m.add("core.head_stall_frac",
          ratio(static_cast<double>(c.headStalls), core_cycles), "ratio",
          of_core);
    m.add("core.mshr_stall_frac",
          ratio(static_cast<double>(c.mshrStalls), core_cycles), "ratio",
          of_core);
    m.add("core.store_stall_frac",
          ratio(static_cast<double>(c.storeStalls), core_cycles),
          "ratio", of_core);
    m.add("core.tick_ns", core.tickNs, "ns",
          "per TraceCore::tick, standalone, load latency " +
              num(latency_p50) + " bus cycles, " +
              std::to_string(core.ticks) + " ticks");

    // System exposes no cache accessor: a load that misses the cache
    // reaches a controller (queued or forwarded), and with the cache
    // on every DRAM write is a writeback.
    const double misses =
        static_cast<double>(c.reads + c.writeForwards);
    m.add("cache.hit_rate",
          cache ? 1.0 - ratio(misses, static_cast<double>(c.loads)) : 0.0,
          "ratio", "base " + num(static_cast<double>(c.loads)) +
              " core loads");
    m.add("cache.writebacks",
          cache ? static_cast<double>(c.writes + c.writeCoalesced) : 0.0,
          "count");

    m.add("os.frames_allocated", static_cast<double>(c.framesAllocated),
          "count");
    m.add("os.color_set_changes",
          static_cast<double>(t0.colorSetChanges), "count",
          "after System construction");
    m.add("os.pages_migrated", static_cast<double>(c.osPagesMigrated),
          "count");
    m.add("os.fallback_allocs", static_cast<double>(c.fallbackAllocs),
          "count");
    m.add("os.translate_ns", mem.translateNs, "ns",
          "per OsMemory::translate, standalone, " +
              std::to_string(mem.translations) + " calls");

    m.add("mem.reads", static_cast<double>(c.reads), "count");
    m.add("mem.writes", static_cast<double>(c.writes), "count");
    m.add("mem.write_forwards", static_cast<double>(c.writeForwards),
          "count");
    m.add("mem.read_queue_full", static_cast<double>(c.readQueueFull),
          "count");
    m.add("mem.write_queue_full", static_cast<double>(c.writeQueueFull),
          "count");
    m.add("mem.row_hit_rate",
          ratio(static_cast<double>(c.rowHits),
                static_cast<double>(c.rowHits + c.rowMisses)),
          "ratio", "base " + num(static_cast<double>(c.rowHits +
                                                     c.rowMisses)) +
              " column commands");
    m.add("mem.read_latency_p50", latency_p50, "bus_cycles");
    m.add("mem.read_latency_p99", c.latencyPercentile(0.99),
          "bus_cycles");
    m.add("mem.tick_ns", mem.tickNs, "ns",
          "per bus cycle (scheduler+controllers+profiler), standalone, " +
              std::to_string(mem.cycles) + " cycles, " +
              std::to_string(mem.rejected) + " enqueues refused");

    m.add("dram.acts", static_cast<double>(c.acts), "count");
    m.add("dram.pres", static_cast<double>(c.pres), "count");
    m.add("dram.reads", static_cast<double>(c.dramReads), "count");
    m.add("dram.writes", static_cast<double>(c.dramWrites), "count");
    m.add("dram.refs", static_cast<double>(c.refs), "count");
    m.add("dram.refpbs", static_cast<double>(c.refpbs), "count");
    m.add("dram.sa_sels", static_cast<double>(c.saSels), "count");
    m.add("dram.cmd_cycle_frac",
          ratio(static_cast<double>(t0.commandCycles), mem_cycles),
          "ratio", "base " + num(mem_cycles) + " bus cycles");

    m.add("part.repartitions", static_cast<double>(c.repartitions),
          "count");
    m.add("part.pages_migrated", static_cast<double>(c.partPagesMigrated),
          "count");
    m.add("part.boundary_ms", medianOf(traced, [](const RepResult &r) {
              return static_cast<double>(r.trace.boundary.ns) * 1e-6;
          }), "ms", std::to_string(t0.boundary.calls) + " boundaries");

    m.add("check.commands", static_cast<double>(c.checkCommands),
          "count");
    m.add("check.on_command_s", medianOf(traced, [&](const RepResult &r) {
              return r.trace.check.seconds(clock_ns);
          }), "s", std::to_string(t0.check.calls) + " calls");
    m.add("check.violations", static_cast<double>(c.checkViolations),
          "count");

    const double cycles = static_cast<double>(c.cpuCycles);
    m.add("sim.mcycles_per_s", medianMcyclesPerS(plain), "Mcycles/s",
          "median over untraced reps");
    m.add("sim.wall_s", medianWallS(plain), "s",
          "median over untraced reps");
    m.add("sim.setup_s", setup_s, "s", "median over set-up passes");
    m.add("sim.run_s", run_s, "s", "median over untraced reps");
    m.add("sim.alone_run_s", medianOf(plain, [](const RepResult &r) {
              return r.aloneRunS;
          }), "s");
    m.add("sim.shared_run_s", medianOf(plain, [](const RepResult &r) {
              return r.sharedRunS;
          }), "s");
    m.add("sim.host_ns_per_cycle", run_s * 1e9 / cycles, "ns",
          "base " + num(cycles) + " CPU cycles");
    m.add("sim.host_ns_per_kinst",
          run_s * 1e9 / (static_cast<double>(c.instructions) * 1e-3), "ns",
          "base " + num(static_cast<double>(c.instructions)) +
              " instructions");
    m.add("sim.host_ns_per_dram_cmd",
          run_s * 1e9 / static_cast<double>(c.dramCommands()), "ns",
          "base " + num(static_cast<double>(c.dramCommands())) +
              " DRAM commands");
    m.add("sim.slice_us_p50", percentile(slice_us, 0.5), "us",
          std::to_string(slice_us.size()) + " slices");
    m.add("sim.slice_us_p99", percentile(slice_us, 0.99), "us");
    m.add("sim.tracing_overhead_pct",
          100.0 * (traced_run_s - run_s) / run_s, "%",
          "traced vs untraced run_s");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Workload w;
    if (!makeWorkload(args.workload, args.seed, w))
        usage("unknown workload " + args.workload);

    std::cout << "perfbench workload=" << w.name << " seed=" << args.seed
              << " seconds=" << num(args.seconds)
              << " trace=" << args.trace << " runs/rep=" << w.runs.size()
              << '\n';
    std::cout << "host {\"cpu\": " << jsonString(cpuModel())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": " << jsonString("GCC " __VERSION__)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << "}\n";

    // Repeat the workload while another repeat still fits in the time
    // budget; the trace run alternates untraced and traced repeats.
    SpanLog spans;
    std::vector<double> setup;
    std::vector<RepResult> plain;
    std::vector<RepResult> traced;
    const std::int64_t start = nowNs();
    double longest = 0.0;
    for (;;) {
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kSetupPassesPerRep; ++i)
            setup.push_back(setupPass(w));
        plain.push_back(runRep(w, nullptr));
        if (args.trace)
            traced.push_back(runRep(w, &spans));
        longest = std::max(longest,
                           static_cast<double>(nowNs() - t0) * 1e-9);
        const double elapsed =
            static_cast<double>(nowNs() - start) * 1e-9;
        if (elapsed + longest > args.seconds)
            break;
    }
    const double setup_s = median(setup);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool deterministic = true;
    for (const auto *reps : {&plain, &traced}) {
        for (const auto &r : *reps) {
            attempted += r.runs.size();
            for (const auto &run : r.runs)
                failed += run.counters.checkViolations > 0 ? 1 : 0;
            deterministic &= r.digest == plain.front().digest;
        }
    }
    if (!deterministic)
        std::cout << "MISMATCH: repeats of one seed differ (traced or "
                     "untraced)\n";
    const bool library_ok = matchesLibrary(w, plain.front());
    const Counters &total = plain.front().total;
    const bool checked = !w.rc.base.protocolCheck ||
        total.checkCommands == total.dramCommands();
    if (!checked)
        std::cout << "MISMATCH: the checker saw " << total.checkCommands
                  << " of " << total.dramCommands() << " DRAM commands\n";

    printReps("untraced", plain);
    if (args.trace)
        printReps("traced", traced);
    MetricSet metrics = args.trace ? perLayer(w, plain, traced, setup_s)
                                   : endToEnd(plain, setup_s);
    metrics.print(std::cout);
    std::cout << "runs_attempted " << attempted << '\n'
              << "runs_failed " << failed << '\n';
    char digest[24];
    std::snprintf(digest, sizeof digest, "0x%016" PRIx64,
                  plain.front().digest);
    std::cout << "digest " << w.name << ' ' << args.seed << ' ' << digest
              << '\n';
    std::cout << "library check: " << (library_ok ? "ok" : "FAILED")
              << " (" << w.runs.size()
              << " runs vs runMixJob/runAloneBaseline)\n";
    if (!args.spans.empty()) {
        if (spans.write(args.spans))
            std::cout << "spans " << spans.size() << " -> " << args.spans
                      << '\n';
        else
            std::cout << "spans: could not write " << args.spans << '\n';
    }

    const bool correct = deterministic && library_ok && checked &&
        failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
}
