/**
 * @file
 * perfbench — host-clock benchmark of the fleet simulator and the
 * cloud update tier.
 *
 *   perfbench --workload fleet_serve|fleet_install|cloud_update
 *             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * With --trace 0 it prints the end-to-end metrics (setup time,
 * throughput, memory) measured with no timer inside the timed phase.
 * With --trace 1 it replays the workload on one thread with a span
 * around every call into a layer and prints the per-layer ledger.
 * Either way the last stdout line is one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
 *
 * perfbench/run.py builds this binary from the checkout and runs it.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.h"

using namespace pc;
using namespace pc::perfbench;

namespace {

/** Shortest round-trip decimal form of a double. */
std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

void
printResult(const RunResult &r)
{
    std::string s = "{\"correct\": ";
    s += r.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value, unit] : r.metrics) {
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + name + "\": {\"value\": " + number(value) +
             ", \"unit\": \"" + unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--trace-dir DIR]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(val);
        else if (key == "--trace")
            args.trace = std::strcmp(val, "0") != 0;
        else if (key == "--trace-dir")
            args.traceDir = val;

        else
            usage(("unknown argument " + key).c_str());
    }
    if (!(args.seconds > 0))
        usage("--seconds must be positive");

    // Four workers, or fewer on a smaller machine: one process, never
    // more threads than the hardware has.
    const unsigned hw = std::thread::hardware_concurrency();
    args.workers = std::max(1u, std::min(4u, hw));

    RunResult result;
    if (args.workload == "fleet_serve")
        runFleetServe(args, result);
    else if (args.workload == "fleet_install")
        runFleetInstall(args, result);
    else if (args.workload == "cloud_update")
        runCloudUpdate(args, result);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (result.attempted == 0)
        result.fail("no operation was attempted");
    // A printed result is a completed run, correct or not: the JSON
    // line carries the verdict.
    printResult(result);
    return 0;
}
