/**
 * @file
 * `cdna_sweep`: parallel experiment-sweep driver.
 *
 * One binary regenerates every paper artifact (and the repository's
 * extension/ablation sweeps) from the shared presets, running the
 * expanded grid on a work-stealing thread pool:
 *
 *   cdna_sweep --preset table2                      # one artifact
 *   cdna_sweep --preset fig3 -j 8 --seeds 5 --out fig3.json
 *   cdna_sweep --preset paper -j 8 --out paper.json # tables 1-4 + figs
 *   cdna_sweep --preset fig3 --trace=t.json         # trace cdna/g1
 *   cdna_sweep --list                               # available presets
 *
 * For each cell it prints the preset's columns from the first-seed
 * report, a "paper" line under every cell the paper reports on, and
 * the preset's ratio rows.  Per-run JSON inside --out is byte-identical
 * for any -j and matches a standalone run of the same configuration at
 * the same seed (see sim/sweep.hh for the determinism contract).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "sim/thread_pool.hh"

using namespace cdna;

namespace {

constexpr const char *kUsage =
    "usage: cdna_sweep --preset NAME [options]\n"
    "\n"
    "presets:\n"
    "  --preset NAME       experiment preset to expand and run; 'paper'\n"
    "                      runs tables 1-4 and figures 3-4 in sequence\n"
    "  --list              print the available presets and exit\n"
    "\n"
    "execution (never affects results):\n"
    "  -j, --jobs N        worker threads (default: hardware threads)\n"
    "  --seeds N           run each cell with seeds 1..N (default 1);\n"
    "                      printed columns show the first seed\n"
    "  --out FILE          write the sweep JSON document to FILE\n"
    "                      ('paper' appends the preset name per file)\n"
    "  --quiet             suppress per-run progress lines\n"
    "  --help              this text\n"
    "\n"
    "observability (the preset's observed cell, first seed; file names\n"
    "get the preset name appended like --out):\n"
    "  --trace FILE        write a Chrome trace-event JSON file\n"
    "  --trace-filter S    only trace lanes whose name contains one of\n"
    "                      the comma-separated substrings\n"
    "  --stats-json FILE   dump every component's stats as JSON\n"
    "  --sample-period US  sample gauges every US simulated microseconds\n";

struct Args
{
    std::vector<std::string> presets;
    unsigned jobs = 0; // 0 = defaultThreadCount()
    std::uint32_t seeds = 1;
    std::string out;
    bool quiet = false;
    core::CliOptions obs; //!< only the observability fields are used
};

/** @p path with "-NAME" before its extension when several presets run. */
std::string
perPreset(const std::string &path, const std::string &name,
          const Args &args)
{
    if (path.empty() || args.presets.size() < 2)
        return path;
    std::size_t dot = path.rfind('.');
    if (dot == std::string::npos)
        return path + "-" + name;
    return path.substr(0, dot) + "-" + name + path.substr(dot);
}

/** Whole numbers and |v| >= 100 print whole; others keep 3 digits. */
std::string
show(double v)
{
    char buf[64];
    if (v == std::floor(v) || std::fabs(v) >= 100)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

/** A scalar report column or probe extra of @p run. */
std::optional<double>
scalar(const sim::RunResult &run, const std::string &key)
{
    if (const core::ReportColumn *c = core::findReportColumn(key))
        return c->get ? std::optional<double>(c->get(run.report))
                      : std::nullopt;
    auto it = run.extra.find(key);
    return it == run.extra.end() ? std::nullopt
                                 : std::optional<double>(it->second);
}

/** @p key of @p run as table text; arrays join their values with '/'. */
std::string
cellText(const sim::RunResult &run, const std::string &key)
{
    const core::ReportColumn *c = core::findReportColumn(key);
    if (c && c->list) {
        std::string text;
        for (double v : c->list(run.report))
            text += (text.empty() ? "" : "/") + show(v);
        return text.empty() ? "-" : text;
    }
    std::optional<double> v = scalar(run, key);
    return v ? show(*v) : "-";
}

/** The first-seed run of @p cell, or nullptr. */
const sim::RunResult *
firstRun(const sim::SweepResult &result, const std::string &cell)
{
    for (const auto &cs : result.cells)
        if (cs.cell == cell)
            return &result.runs[cs.firstRun];
    return nullptr;
}

/** Print the preset's columns per cell, paper lines, and ratio rows. */
void
printPreset(const sim::presets::Preset &preset,
            const sim::SweepResult &result)
{
    std::vector<std::vector<std::string>> rows{{"cell"}};
    rows[0].insert(rows[0].end(), preset.columns.begin(),
                   preset.columns.end());
    for (const auto &cs : result.cells) {
        const sim::RunResult &run = result.runs[cs.firstRun];
        std::vector<std::string> measured{cs.cell}, paper{"  paper"};
        bool hasPaper = false;
        for (const std::string &key : preset.columns) {
            measured.push_back(cellText(run, key));
            auto it = std::find_if(
                preset.paper.begin(), preset.paper.end(),
                [&](const auto &p) {
                    return p.cell == cs.cell && p.key == key;
                });
            bool known = it != preset.paper.end();
            hasPaper |= known;
            paper.push_back(known ? show(it->value) : "-");
        }
        rows.push_back(std::move(measured));
        if (hasPaper)
            rows.push_back(std::move(paper));
    }

    std::vector<std::size_t> width(rows[0].size(), 0);
    for (const auto &row : rows)
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    std::printf("=== %s ===\n", preset.name.c_str());
    for (const auto &row : rows) {
        std::printf("%-*s", static_cast<int>(width[0]), row[0].c_str());
        for (std::size_t i = 1; i < row.size(); ++i)
            std::printf("  %*s", static_cast<int>(width[i]),
                        row[i].c_str());
        std::printf("\n");
    }

    for (const auto &r : preset.ratios) {
        const sim::RunResult *a = firstRun(result, r.cellA);
        const sim::RunResult *b = firstRun(result, r.cellB);
        std::optional<double> va = a ? scalar(*a, r.key) : std::nullopt;
        std::optional<double> vb = b ? scalar(*b, r.key) : std::nullopt;
        char ratio[32] = "-";
        if (va && vb)
            std::snprintf(ratio, sizeof(ratio), "%.2f", *va / *vb);
        std::printf("%s / %s %s: %s", r.cellA.c_str(), r.cellB.c_str(),
                    r.key.c_str(), ratio);
        if (r.value)
            std::printf("  (paper %.2f)", *r.value);
        std::printf("\n");
    }
}

int
runOne(const std::string &name, const Args &args)
{
    const sim::presets::Preset *preset = sim::presets::find(name);
    if (!preset) {
        std::fprintf(stderr, "cdna_sweep: unknown preset '%s' "
                             "(--list shows the choices)\n",
                     name.c_str());
        return 1;
    }
    sim::ExperimentSpec spec = preset->make();
    spec.seeds(args.seeds);

    sim::SweepOptions opt;
    opt.jobs = args.jobs;
    if (!args.obs.traceFile.empty() || !args.obs.statsJsonFile.empty()) {
        if (spec.runnerFn())
            std::fprintf(stderr,
                         "cdna_sweep: warning: %s builds its own "
                         "topology; observability flags are ignored\n",
                         name.c_str());
        opt.observeCell = preset->observe.empty() ? spec.expand()[0].cell
                                                  : preset->observe;
        opt.obs = args.obs;
        opt.obs.traceFile = perPreset(args.obs.traceFile, name, args);
        opt.obs.statsJsonFile =
            perPreset(args.obs.statsJsonFile, name, args);
    }
    if (!args.quiet) {
        opt.onResult = [](const sim::RunResult &r, std::size_t done,
                          std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s seed=%llu: %.0f Mb/s\n",
                         done, total, r.point.cell.c_str(),
                         static_cast<unsigned long long>(r.point.seed),
                         r.report.mbps);
        };
    }

    std::size_t totalRuns = spec.expand().size();
    unsigned jobs = args.jobs ? args.jobs : sim::defaultThreadCount();
    std::fprintf(stderr, "=== %s: %zu runs on %u worker(s) ===\n",
                 name.c_str(), totalRuns, jobs);

    auto t0 = std::chrono::steady_clock::now();
    sim::SweepResult result = sim::runSweep(spec, opt);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::fprintf(stderr, "=== %s: done in %.2f s ===\n", name.c_str(),
                 wall);

    printPreset(*preset, result);

    if (!args.out.empty()) {
        std::string path = perPreset(args.out, name, args);
        std::ofstream f(path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "cdna_sweep: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        f << sim::sweepToJson(result);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return 0;
}

/** Parse a positive count for @p flag; prints the error itself. */
bool
positive(const char *flag, const std::string &v, std::uint32_t *out)
{
    if (core::parseU32(v, out) && *out > 0)
        return true;
    std::fprintf(stderr, "cdna_sweep: %s needs a positive integer\n", flag);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::vector<std::string> obsArgs; // re-parsed by core::parseCli
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        // Accept --opt=value as well as --opt value.
        std::size_t eq = a.find('=');
        bool inlineValue = a.size() > 2 && a.compare(0, 2, "--") == 0 &&
                           eq != std::string::npos;
        if (inlineValue) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        }
        auto value = [&] {
            if (!inlineValue && i + 1 < argc)
                v = argv[++i];
            else if (!inlineValue || v.empty()) {
                std::fprintf(stderr, "cdna_sweep: %s needs a value\n",
                             a.c_str());
                return false;
            }
            return true;
        };

        if (a == "--help" || a == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else if (a == "--list") {
            for (const auto &preset : sim::presets::all())
                std::printf("  %-14s %zu runs/seed\n", preset.name.c_str(),
                            preset.make().expand().size());
            return 0;
        } else if (a == "--preset") {
            if (!value())
                return 1;
            if (v == "paper")
                args.presets = {"table1", "table2", "table3",
                                "table4", "fig3",   "fig4"};
            else
                args.presets.push_back(v);
        } else if (a == "-j" || a == "--jobs") {
            std::uint32_t jobs = 0;
            if (!value() || !positive("--jobs", v, &jobs))
                return 1;
            args.jobs = jobs;
        } else if (a == "--seeds") {
            if (!value() || !positive("--seeds", v, &args.seeds))
                return 1;
        } else if (a == "--out") {
            if (!value())
                return 1;
            args.out = v;
        } else if (a == "--quiet") {
            args.quiet = true;
        } else if (a == "--trace" || a == "--trace-filter" ||
                   a == "--stats-json" || a == "--sample-period") {
            if (!value())
                return 1;
            obsArgs.insert(obsArgs.end(), {a, v});
        } else {
            std::fprintf(stderr, "cdna_sweep: unknown option %s\n%s",
                         a.c_str(), kUsage);
            return 1;
        }
    }

    if (args.presets.empty()) {
        std::fprintf(stderr, "cdna_sweep: --preset is required\n%s",
                     kUsage);
        return 1;
    }
    std::string error;
    auto obs = core::parseCli(obsArgs, &error);
    if (!obs) {
        std::fprintf(stderr, "cdna_sweep: %s\n", error.c_str());
        return 1;
    }
    args.obs = *obs;

    for (const std::string &name : args.presets) {
        int rc = runOne(name, args);
        if (rc)
            return rc;
    }
    return 0;
}
