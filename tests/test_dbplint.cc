/**
 * @file
 * dbplint's own tests. Positive coverage comes from the fixture files
 * under tools/lint/fixtures/: each carries `EXPECT:<rule>` markers on
 * the lines that must fire, and the test compares the finding set
 * against the markers exactly — so a rule that stops firing, fires on
 * the wrong line, or over-fires all fail the same assertion. The
 * cross-file rules (validate-coverage, config-key-doc,
 * violation-test, campaign-doc) are driven with inline corpora, and
 * the negative test lints the real repository tree, which must be
 * clean — the in-process twin of the LintTreeClean ctest gate.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rules.hh"

namespace fs = std::filesystem;
using namespace dbpsim::lint;

namespace {

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

fs::path
repoRoot()
{
    return fs::path(DBPSIM_SOURCE_ROOT);
}

using LineRule = std::pair<unsigned, std::string>;

/** The `EXPECT:<rule>` markers in a fixture, as (line, rule) pairs. */
std::set<LineRule>
expectedMarkers(const std::string &content)
{
    static const std::string kMarker = "EXPECT:";
    std::set<LineRule> out;
    unsigned line = 1;
    std::size_t start = 0;
    while (start <= content.size()) {
        std::size_t nl = content.find('\n', start);
        std::string text =
            nl == std::string::npos
                ? content.substr(start)
                : content.substr(start, nl - start);
        std::size_t pos = 0;
        while ((pos = text.find(kMarker, pos)) != std::string::npos) {
            std::size_t id = pos + kMarker.size();
            std::size_t end = id;
            while (end < text.size() &&
                   ((text[end] >= 'a' && text[end] <= 'z') ||
                    text[end] == '-'))
                ++end;
            out.insert({line, text.substr(id, end - id)});
            pos = end;
        }
        if (nl == std::string::npos)
            break;
        start = nl + 1;
        ++line;
    }
    return out;
}

std::set<LineRule>
asLineRules(const std::vector<Finding> &findings)
{
    std::set<LineRule> out;
    for (const Finding &f : findings)
        out.insert({f.line, f.rule});
    return out;
}

/**
 * Lint one fixture under a synthetic src/ path (the banned and
 * cycle-literal rules are path-sensitive) and require the finding set
 * to match the fixture's markers exactly.
 */
void
checkFixture(const std::string &name)
{
    const std::string content =
        slurp(repoRoot() / "tools/lint/fixtures" / name);
    ASSERT_FALSE(content.empty()) << "fixture " << name;
    Corpus corpus;
    corpus.files.push_back({"src/fixture/" + name, content});
    EXPECT_EQ(asLineRules(lintCorpus(corpus)), expectedMarkers(content))
        << "fixture " << name;
}

} // namespace

// ---- per-rule firing fixtures (positive) ----------------------------

TEST(DbplintFixture, BannedRand) { checkFixture("banned_rand.cc"); }

TEST(DbplintFixture, BannedRandomDevice)
{
    checkFixture("banned_random_device.cc");
}

TEST(DbplintFixture, BannedTime) { checkFixture("banned_time.cc"); }

TEST(DbplintFixture, BannedSystemClock)
{
    checkFixture("banned_system_clock.cc");
}

TEST(DbplintFixture, BannedGetenv) { checkFixture("banned_getenv.cc"); }

TEST(DbplintFixture, Unordered) { checkFixture("unordered.cc"); }

TEST(DbplintFixture, CycleLiteral) { checkFixture("cycle_literal.cc"); }

TEST(DbplintFixture, SuppressionSemantics)
{
    checkFixture("suppress.cc");
}

// The sanctioned homes are exempt: the same banned content under
// src/common/config.* must produce nothing.
TEST(DbplintFixture, SanctionedPathsExempt)
{
    const std::string content =
        slurp(repoRoot() / "tools/lint/fixtures/banned_getenv.cc");
    Corpus corpus;
    corpus.files.push_back({"src/common/config.cc", content});
    EXPECT_TRUE(lintCorpus(corpus).empty());
}

// ---- cross-file rules (inline corpora) ------------------------------

TEST(DbplintCrossFile, ValidateCoverage)
{
    Corpus corpus;
    corpus.files.push_back(
        {"src/dram/channel.cc",
         R"(void f(const DramTiming &timing_) { use(timing_.tZQ); })"});
    corpus.files.push_back(
        {"src/dram/timing.cc",
         R"(void DramTiming::validate() const { check(tRCD); })"});
    std::vector<Finding> findings = lintCorpus(corpus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "validate-coverage");
    EXPECT_EQ(findings[0].file, "src/dram/channel.cc");

    // Covering the field in validate()'s body clears the finding.
    corpus.files[1].content =
        R"(void DramTiming::validate() const { check(tZQ); })";
    EXPECT_TRUE(lintCorpus(corpus).empty());
}

TEST(DbplintCrossFile, ConfigKeyDoc)
{
    Corpus corpus;
    corpus.files.push_back(
        {"src/sim/x.cc",
         R"(void f(const Config &c) { c.getUInt("banana", 1); })"});
    corpus.readme = "documented keys: `apple` only";
    std::vector<Finding> findings = lintCorpus(corpus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "config-key-doc");

    // A backticked README mention satisfies the rule; `bananas`
    // would not (word boundary).
    corpus.readme = "documented keys: `apple`, `banana`";
    EXPECT_TRUE(lintCorpus(corpus).empty());

    // Keys parsed by tests are test-internal, never user surface.
    corpus.files[0].path = "tests/x.cc";
    corpus.readme = "nothing documented";
    EXPECT_TRUE(lintCorpus(corpus).empty());
}

TEST(DbplintCrossFile, ViolationTest)
{
    Corpus corpus;
    corpus.files.push_back(
        {"src/check/protocol_check.hh",
         R"(enum class Violation { RowMiss, BadPre, };)"});
    corpus.files.push_back(
        {"tests/test_protocol_check.cc",
         R"(TEST(C, R) { expect(Violation::RowMiss); })"});
    std::vector<Finding> findings = lintCorpus(corpus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "violation-test");
    EXPECT_EQ(findings[0].file, "src/check/protocol_check.hh");
    EXPECT_NE(findings[0].message.find("BadPre"), std::string::npos);

    corpus.files[1].content =
        R"(TEST(C, R) { expect(Violation::RowMiss, Violation::BadPre); })";
    EXPECT_TRUE(lintCorpus(corpus).empty());
}

TEST(DbplintCrossFile, CampaignDoc)
{
    Corpus corpus;
    corpus.files.push_back(
        {"bench/x.cc",
         R"(const CampaignRegistrar reg({"figZ", "t", "e", p, r});)"});
    corpus.experiments = "## figQ: something else\n";
    std::vector<Finding> findings = lintCorpus(corpus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "campaign-doc");

    corpus.experiments = "## figZ: documented\n";
    EXPECT_TRUE(lintCorpus(corpus).empty());

    // Many registrations in one file (table rows): each is checked on
    // its own, and the finding names the undocumented one.
    corpus.files[0] = {
        "bench/rows.cc",
        "const CampaignRegistrar figZ(row({\"figZ\", \"t\", \"e\"}));\n"
        "const CampaignRegistrar figY(row({\"figY\", \"t\", \"e\"}));\n"};
    findings = lintCorpus(corpus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "campaign-doc");
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_NE(findings[0].message.find("\"figY\""), std::string::npos);
}

// ---- output formats and rule inventory ------------------------------

TEST(DbplintOutput, TextAndJson)
{
    Finding f{"src/a.cc", 3, "banned-rand", "msg with \"quotes\""};
    EXPECT_EQ(findingToText(f),
              "src/a.cc:3: [determinism/banned-rand] msg with "
              "\"quotes\"");
    std::string js = findingsToJson({f});
    EXPECT_NE(js.find("\"file\": \"src/a.cc\""), std::string::npos);
    EXPECT_NE(js.find("\"line\": 3"), std::string::npos);
    EXPECT_NE(js.find("determinism/banned-rand"), std::string::npos);
    EXPECT_NE(js.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_EQ(findingsToJson({}), "[]\n");
}

TEST(DbplintOutput, RuleInventory)
{
    std::vector<std::string> ids = ruleIds();
    EXPECT_EQ(ids.size(), 15u);
    EXPECT_EQ(ruleFamily("unordered-iter"),
              "determinism/unordered-iter");
    EXPECT_EQ(ruleFamily("cycle-literal"), "timing/cycle-literal");
    EXPECT_EQ(ruleFamily("validate-coverage"),
              "timing/validate-coverage");
    EXPECT_EQ(ruleFamily("config-key-doc"),
              "consistency/config-key-doc");
    EXPECT_EQ(ruleFamily("empty-reason"), "meta/empty-reason");
}

// ---- the clean-tree negative run ------------------------------------

TEST(DbplintTree, RepositoryLintsClean)
{
    const fs::path root = repoRoot();
    Corpus corpus;
    std::vector<fs::path> files;
    for (const char *dir : {"src", "tests", "bench", "examples"}) {
        fs::path d = root / dir;
        if (!fs::is_directory(d))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(d)) {
            if (!e.is_regular_file())
                continue;
            const std::string ext = e.path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
                ext == ".hpp")
                files.push_back(e.path());
        }
    }
    ASSERT_FALSE(files.empty());
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files)
        corpus.files.push_back(
            {fs::relative(f, root).generic_string(), slurp(f)});
    corpus.readme = slurp(root / "README.md");
    corpus.experiments = slurp(root / "EXPERIMENTS.md");

    std::vector<Finding> findings = lintCorpus(corpus);
    for (const Finding &f : findings)
        ADD_FAILURE() << findingToText(f);
    EXPECT_TRUE(findings.empty());
}
