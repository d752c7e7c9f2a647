#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload served|timetravel|cycles \
        --seed N --seconds S [--trace 0|1]

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check that the build is current. The driver runs the workload's
set-up, its timed phase and its oracle check, and prints raw samples;
this script turns them into the metrics named in BENCHMARK.json, prints
a human-readable report, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when every operation succeeded and every oracle
check matched. See perfbench/README.md for what each metric means.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("served", "timetravel", "cycles")
USAGE = ("usage: python3 perfbench/run.py --workload served|timetravel|cycles"
         " --seed N --seconds S [--trace 0|1]")
# Each workload's op latencies: (name, series, quantile, scale, unit).
# They are reported, not gated (README.md: their ten-seed spreads on a
# shared host exceed the largest bound BENCHMARK.json allows), but a run
# that cannot give them under the percentile-sample rule fails.
LATENCIES = {
    "served": [("verb_p50_us", "op_us", 0.5, 1, "us"),
               ("verb_p99_us", "op_us", 0.99, 1, "us")],
    "timetravel": [("reverse_p50_ms", "op_us", 0.5, 1e-3, "ms"),
                   ("reverse_p90_ms", "op_us", 0.9, 1e-3, "ms"),
                   ("edit_p50_ms", "edit_us", 0.5, 1e-3, "ms"),
                   ("replay_verify_ms", "verify_us", 0.5, 1e-3, "ms")],
    "cycles": [("cell_p50_ms", "cell_us", 0.5, 1e-3, "ms"),
               ("cell_p50_us_per_kinst", "op_us", 0.5, 1, "us"),
               ("cell_p80_us_per_kinst", "op_us", 0.8, 1, "us")],
}
# The driver's wall-clock budget. A run takes a few times --seconds
# (set-up, the timed phase, an oracle replay of it, and with --trace 1
# the layer probes), so --seconds is capped where the slowest traced
# run still ends well inside this budget.
DRIVER_TIMEOUT_S = 170
MAX_SECONDS = 30


class UsageError(Exception):
    pass


def parse_args(argv):
    """Strict flag parsing with one-line errors."""
    opts = {"trace": 0, "corrupt_digest": False}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--help", "-h"):
            return None
        if flag == "--corrupt-digest":
            opts["corrupt_digest"] = True
            i += 1
            continue
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError("unknown option '%s'" % flag)
        if i + 1 >= len(argv):
            raise UsageError("missing value for %s" % flag)
        value = argv[i + 1]
        i += 2
        if flag == "--workload":
            if value not in WORKLOADS:
                raise UsageError("unknown workload '%s'" % value)
            opts["workload"] = value
            continue
        if not value.isdigit():
            raise UsageError("bad value for %s: '%s'" % (flag, value))
        n = int(value)
        if flag == "--seed":
            opts["seed"] = n
        elif flag == "--seconds":
            if not 1 <= n <= MAX_SECONDS:
                raise UsageError("--seconds must be 1..%d" % MAX_SECONDS)
            opts["seconds"] = n
        else:
            if n not in (0, 1):
                raise UsageError("--trace must be 0 or 1")
            opts["trace"] = n
    for required in ("workload", "seed", "seconds"):
        if required not in opts:
            raise UsageError("--%s is required" % required)
    return opts


def min_samples(q):
    """The percentile-sample rule: a q-quantile needs at least ten
    samples beyond it (p50: 20, p90: 100, p99: 1000)."""
    return int(round(10 / (1 - q)))


def percentile(samples, q):
    """The q-quantile of samples, or None when the sample rule fails."""
    if len(samples) < min_samples(q):
        return None
    if q == 0.5:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=1000, method="inclusive")[
        int(round(q * 1000)) - 1]


class Result:
    """Operation accounting for one run."""

    def __init__(self, attempted=0, failed=0, failures=()):
        self.attempted = attempted
        self.failed = failed
        self.failures = list(failures)
        self.metrics = {}

    def fail(self, why):
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0

    def line(self):
        return json.dumps({"correct": self.correct,
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": self.metrics})


def end_to_end(doc):
    """End-to-end metric values (None where missing) and the sample
    count behind each."""
    series = doc.get("series", {})
    values = doc.get("values", {})
    setups = series.get("setup_s", [])
    return {
        "setup_s": (statistics.median(setups) if setups else None,
                    len(setups)),
        "peak_rss_mb": (values.get("peak_rss_mb"), 1),
        "app_mips": (values.get("app_mips"), 1),
    }


def latencies(doc, workload):
    """The workload's reported latencies: (name, value or None when the
    sample rule fails, unit, sample count)."""
    series = doc.get("series", {})
    out = []
    for name, key, q, scale, unit in LATENCIES[workload]:
        s = series.get(key, [])
        v = percentile(s, q)
        out.append((name, None if v is None else v * scale, unit, len(s)))
    return out


def summarize(doc, spec, workload, trace):
    """Build the Result for one driver document against BENCHMARK.json:
    every metric the spec names must be present, finite and non-zero
    for end-to-end metrics; anything missing counts as a failure."""
    res = Result(doc.get("attempted", 0), doc.get("failed", 0),
                 doc.get("failures", []))
    if trace:
        values = doc.get("values", {})
        for m in spec["per_layer"]:
            v = values.get(m["name"])
            if v is None:
                res.fail("per-layer metric %s missing" % m["name"])
            else:
                res.metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        return res
    measured = end_to_end(doc)
    for m in spec["end_to_end"]:
        v, n = measured.get(m["name"], (None, 0))
        if v is None or not v > 0:
            res.fail("end-to-end metric %s unavailable (%d samples)"
                     % (m["name"], n))
            continue
        res.metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for name, v, _, n in latencies(doc, workload):
        if v is None:
            res.fail("%s unavailable: %d samples break the percentile-"
                     "sample rule" % (name, n))
    return res


def source_digest():
    """sha256 over the simulator and benchmark sources (provenance for
    checkouts without git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                raise RuntimeError("build failed (%s):\n%s" % (log_path, tail))
    return os.path.join(build_dir, "perfbench")


def report(workload, doc, res, prov):
    """Human-readable lines: provenance, the workload's named metrics
    with unit and sample count, operations."""
    print("perfbench %s seed=%s git=%s src=%s nproc=%s cpu=%r compiler=%s "
          "build=%s" % (workload, prov["seed"], prov["git_sha"],
                        prov["source_digest"], prov["nproc"],
                        prov["cpu_model"], prov["compiler"],
                        prov["build_type"]))
    series = doc.get("series", {})
    values = doc.get("values", {})

    def row(name, value, unit, n):
        shown = "n/a (sample rule)" if value is None else "%.6g" % value
        print("  %-22s %-20s %-8s samples=%d" % (name, shown, unit, n))

    row("setup_s", statistics.median(series["setup_s"])
        if series.get("setup_s") else None, "s", len(series.get("setup_s", [])))
    row("peak_rss_mb", values.get("peak_rss_mb"), "MiB", 1)
    row("app_mips", values.get("app_mips"), "Minst/s",
        sum(len(series.get(k, [])) for k in ("op_us", "edit_us",
                                              "verify_us")))
    for name, v, unit, n in latencies(doc, workload):
        row(name, v, unit, n)
    if workload == "cycles":
        row("sim_overhead_x", values.get("sim_overhead_x"), "x",
            int(values.get("cycles.passes", 0)))
    if "known_defects" in values:
        # Counted apart from the operations (README.md, known defects).
        print("  known defects reproduced: %d (%s)" % (
            values["known_defects"],
            ", ".join(sorted(k[len("defect."):] for k, v in values.items()
                             if k.startswith("defect.") and v)) or "none"))
    print("  operations: attempted=%d failed=%d" % (res.attempted, res.failed))
    for f in res.failures[:10]:
        print("  FAILED: %s" % f)


def main(argv):
    try:
        opts = parse_args(argv)
    except UsageError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if opts is None:
        print(USAGE)
        print(__doc__.split("\n\n", 2)[2].strip())
        return 0
    if not os.path.exists(os.path.join(ROOT, "src", "session",
                                       "debug_session.hh")):
        print("perfbench: simulator sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (RuntimeError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [driver, "--workload", opts["workload"], "--seed",
           str(opts["seed"]), "--seconds", str(opts["seconds"]),
           "--trace", str(opts["trace"]), "--out-dir", out_dir]
    if opts["corrupt_digest"]:
        cmd.append("--corrupt-digest")
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %ds" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 2
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: driver exited %d without a result" %
              proc.returncode, file=sys.stderr)
        return 2

    res = summarize(doc, spec, opts["workload"], opts["trace"])
    prov = dict(doc.get("provenance", {}))
    prov.update({"seed": opts["seed"], "git_sha": git_sha(),
                 "source_digest": source_digest(),
                 "driver_seconds": round(time.time() - started, 3)})
    report(opts["workload"], doc, res, prov)
    record = {"workload": opts["workload"], "trace": opts["trace"],
              "seconds": opts["seconds"], "provenance": prov,
              "result": json.loads(res.line()),
              "sample_counts": {k: len(v) for k, v in
                                doc.get("series", {}).items()},
              "values": doc.get("values", {})}
    with open(os.path.join(out_dir, "result-%s-%d-trace%d.json" % (
            opts["workload"], opts["seed"], opts["trace"])), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(res.line())
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
