/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <catalog_sweep|serve_mix|cbm_stream>
 *             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
 *
 * Run from the repository root (it reads perfbench/spec.json). The last
 * line of standard output is the result:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1), each with its unit; everything else goes to stderr. A
 * failed correctness check prints the result with "correct": false and
 * exits 1.
 */

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("perfbench: " + arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::stoull(value);
        else if (arg == "--seconds")
            args.seconds = std::stod(value);
        else if (arg == "--trace")
            args.trace = value != "0";
        else if (arg == "--scratch")
            args.scratch = value;
        else
            throw std::runtime_error("perfbench: unknown flag " + arg);
    }
    if (args.seconds <= 0)
        throw std::runtime_error("perfbench: --seconds must be positive");
    return args;
}

/** The copernicus_serve built beside this binary. */
std::string
daemonPath()
{
    char self[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        throw std::runtime_error("perfbench: cannot locate its own binary");
    std::string path(self, static_cast<std::size_t>(n));
    return path.substr(0, path.rfind('/') + 1) + "copernicus_serve";
}

std::string
resultLine(const Outcome &out, bool trace)
{
    std::ostringstream line;
    line << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    const auto &names = trace ? perLayerMetrics() : endToEndMetrics();
    bool first = true;
    for (const auto &[name, unit] : names) {
        const auto it = out.metrics.find(name);
        if (it == out.metrics.end() && !trace)
            throw std::runtime_error("perfbench: the workload did not "
                                     "measure " + name);
        const double value = it == out.metrics.end() ? 0 : it->second.value;
        line << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
        copernicus::writeJsonNumber(line, value);
        line << ", \"unit\": \"" << unit << "\"}";
        first = false;
        std::fprintf(stderr, "  %-34s %16.6g %s\n", name.c_str(), value,
                     unit.c_str());
    }
    line << "}}";
    return line.str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Outcome out;
        if (args.workload == "catalog_sweep")
            out = runCatalogSweep(args);
        else if (args.workload == "serve_mix")
            out = runServeMix(args, daemonPath());
        else if (args.workload == "cbm_stream")
            out = runCbmStream(args);
        else
            throw std::runtime_error("perfbench: unknown workload '" +
                                     args.workload + "'");
        for (const std::string &problem : out.problems)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         problem.c_str());
        const std::string line = resultLine(out, args.trace);
        std::cout << line << std::endl;
        return out.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
