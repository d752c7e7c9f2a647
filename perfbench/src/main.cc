/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench --workload served|timetravel|cycles --seed N --seconds S
 *             [--trace 0|1] [--out-dir DIR] [--corrupt-digest]
 *
 * Runs one workload (set-up, timed phase, oracle check) and prints one
 * JSON document on its last stdout line: raw samples, scalar results,
 * operations attempted/failed and host provenance. perfbench/run.py
 * turns that document into the benchmark's metrics. With --trace 1 the
 * workload runs twice (untraced, then with bench-side spans and the
 * flight recorder armed) and the layer probes and layer ladder run
 * after it, still traced. Bench spans go to
 * DIR/spans-<workload>-<seed>.json and the flight recorder's dump
 * (scheduler, replay and server spans from inside the program) to
 * DIR/recorder-<workload>-<seed>.json.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hh"
#include "obs/trace.hh"

using namespace perfbench;

namespace {

const char *kUsage =
    "usage: perfbench --workload served|timetravel|cycles --seed N "
    "--seconds S [--trace 0|1] [--out-dir DIR] [--corrupt-digest]\n";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
        v.size() > 18)
        usageError("bad value for " + flag + ": '" + v + "'");
    return std::stoull(v);
}

/** The workload's timed-phase throughput, for the trace-overhead
 *  ratio. */
double
rate(Ctx &ctx)
{
    return ctx.values()["app_mips"];
}

void
runWorkload(Ctx &ctx, double seconds)
{
    if (ctx.workload == "served")
        runServed(ctx, seconds);
    else if (ctx.workload == "timetravel")
        runTimetravel(ctx, seconds);
    else
        runCycles(ctx, seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    Ctx ctx;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for " + a);
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else if (a == "--workload") {
            ctx.workload = next();
            if (ctx.workload != "served" && ctx.workload != "timetravel" &&
                ctx.workload != "cycles")
                usageError("unknown workload '" + ctx.workload + "'");
            haveWorkload = true;
        } else if (a == "--seed") {
            ctx.seed = parseUint(a, next());
            haveSeed = true;
        } else if (a == "--seconds") {
            uint64_t s = parseUint(a, next());
            if (s < 1 || s > 30)
                usageError("--seconds must be 1..30");
            ctx.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (a == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usageError("--trace must be 0 or 1");
            ctx.trace = v == "1";
        } else if (a == "--out-dir") {
            ctx.outDir = next();
        } else if (a == "--corrupt-digest") {
            ctx.corruptPending = true;
        } else {
            usageError("unknown option '" + a + "'");
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds)
        usageError("--workload, --seed and --seconds are required");

    try {
        if (!ctx.trace) {
            runWorkload(ctx, ctx.seconds);
        } else {
            // Untraced half, then the traced half: the throughput ratio
            // is the tracing overhead of this workload.
            runWorkload(ctx, ctx.seconds / 2);
            double plain = rate(ctx);
            Spans::instance().setEnabled(true);
            dise::obs::Tracer::instance().arm();
            runWorkload(ctx, ctx.seconds / 2);
            double traced = rate(ctx);
            if (plain > 0 && traced > 0)
                ctx.set("obs.trace_overhead_pct",
                        100.0 * (plain / traced - 1.0));
            runLayers(ctx);
            Spans::instance().setEnabled(false);
            dise::obs::Tracer::instance().disarm();
            std::string tag = ctx.workload + "-" + std::to_string(ctx.seed);
            Spans::instance().writeJson(ctx.outDir + "/spans-" + tag + ".json");
            std::ofstream(ctx.outDir + "/recorder-" + tag + ".json")
                << dise::obs::Tracer::instance().dumpJson() << '\n';
            ctx.set("obs.bench_spans", Spans::instance().size());
        }
    } catch (const std::exception &e) {
        ctx.ops.attempt();
        ctx.ops.fail(std::string("uncaught: ") + e.what());
    }

    Json j;
    j.beginObject();
    j.key("workload").value(ctx.workload);
    j.key("provenance");
    writeProvenance(j, ctx);
    j.key("attempted").value(ctx.ops.attempted());
    j.key("failed").value(ctx.ops.failed());
    j.key("failures").beginArray();
    for (const std::string &f : ctx.ops.failures())
        j.value(f);
    j.endArray();
    j.key("series").beginObject();
    for (const auto &[name, v] : ctx.series())
        j.key(name).numbers(v);
    j.endObject();
    j.key("values").beginObject();
    for (const auto &[name, v] : ctx.values())
        j.key(name).value(v);
    j.endObject();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
