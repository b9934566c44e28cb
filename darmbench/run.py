#!/usr/bin/env python3
"""darmbench: builds the benchmark from this checkout and runs it.

  run.py --workload W --seed N [--seconds S] [--trace 0|1] [--out F.json]
         [--trace-out F.json]
      Builds .bench_build/darmbench if needed, then runs one workload. The
      last line of stdout is the result JSON; the exit code is the
      benchmark's (0 only when every checked output was correct).

  run.py --sweep SET.json [--runs N] [--seconds S] [--first-seed K]
         [--trace 0|1]
      Runs every workload N times with seeds K..K+N-1, collects the full
      reports into SET.json ({"build": {...}, "runs": [...]}), and prints
      each end-to-end metric's median and spread (interquartile range over
      median).

  run.py --compare OLD.json NEW.json
      Compares two sets of untraced reports (sweep files, or single
      reports written by --out): one row per (workload, metric), direction
      and bound from BENCHMARK.json. Exits 1 when a metric regressed
      beyond its bound.

  run.py --smoke [--binary PATH]
      Every workload for half a second, untraced and traced: checks that
      each BENCHMARK.json metric is emitted with its unit, that no output
      failed, and the pinned device numbers of sim-fig8 and sim-real.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "darmbench")
WORKLOADS = ["sim-fig8", "sim-real", "serve-warm", "serve-cold"]

# Device counters are exact: simulated cycles do not depend on the host.
# sim-fig8 and sim-real reproduce the Fig. 8 and Fig. 9 geomeans (1.22x,
# 1.09x) of bench/fig8_synthetic and bench/fig9_realworld.
PINNED_DEVICE = {
    "sim-fig8": {"device_cycles_speedup": 1.2153, "device_divbr_ratio": 0.3636,
                 "device_alu_util": 0.8994},
    "sim-real": {"device_cycles_speedup": 1.0873, "device_divbr_ratio": 0.6834,
                 "device_alu_util": 0.2525},
}


def fail(msg):
    print("darmbench: " + msg, file=sys.stderr)
    return 2


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds the darmbench target (a no-op when
    nothing changed). Build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("the DARM sources are not next to this directory; "
                    "run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, cwd=ROOT)
        if rc:
            return fail("cmake configure failed")
    rc = subprocess.call(["cmake", "--build", BUILD, "--target", "darmbench",
                          "-j", jobs], stdout=sys.stderr, cwd=ROOT)
    return fail("build failed") if rc else 0


def binary():
    return os.path.join(BUILD, "darmbench")


def run_workload(exe, workload, seed, seconds, trace, out=None, trace_out=None,
                 capture=False):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if out:
        cmd += ["--out", out]
    if trace:
        if not trace_out:
            os.makedirs(os.path.join(ROOT, ".bench_build", "traces"),
                        exist_ok=True)
            trace_out = os.path.join(".bench_build", "traces",
                                     "%s-s%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_out]
    # Set-up, the window and verification end well inside this limit; a
    # hung run is killed (and waited for) rather than left behind.
    limit = 2 * float(seconds) + 60
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=limit,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("darmbench: %s timed out after %gs" % (workload, limit),
              file=sys.stderr)
        return 3, ""
    return p.returncode, (p.stdout.decode() if capture else "")


def spread(values):
    """Interquartile range over median, as statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def load_reports(path):
    """End-to-end values of the untraced reports in a sweep file (or a
    single --out report), by workload."""
    with open(path) as f:
        doc = json.load(f)
    by_workload = {}
    for rep in doc.get("runs", [doc]):
        if rep.get("schema") != "darmbench-v1" or rep.get("trace"):
            continue
        values = {m["name"]: m["value"] for m in rep["end_to_end"]}
        by_workload.setdefault(rep["workload"], []).append(values)
    return by_workload


def compare(old_path, new_path):
    """One row per (workload, metric). A metric regressed when NEW's median
    is worse than OLD's by more than its bound; it is unresolved when
    either side's spread is wider than the bound, unless every NEW run
    reads better than every OLD run; it improved when the medians differ
    by more than OLD's spread."""
    metrics = spec()["end_to_end"]
    old, new = load_reports(old_path), load_reports(new_path)
    regressed = False
    print("%-11s %-22s %-6s %13s %13s %8s %7s %7s  %s" % (
        "workload", "metric", "unit", "old", "new", "change", "sp.old",
        "sp.new", "verdict"))
    for workload in WORKLOADS:
        if workload not in old or workload not in new:
            continue
        for m in metrics:
            a = [r[m["name"]] for r in old[workload] if m["name"] in r]
            b = [r[m["name"]] for r in new[workload] if m["name"] in r]
            if not a or not b:
                continue
            ma, sa = spread(a)
            mb, sb = spread(b)
            lower = m["better"] == "lower"
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if lower else -change
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if worse > m["bound"]:
                verdict = "REGRESSION (bound %g)" % m["bound"]
                regressed = True
            elif max(sa, sb) > m["bound"] and not all_better:
                verdict = "unresolved (spread > bound %g)" % m["bound"]
            elif -worse > sa:
                verdict = "better"
            else:
                verdict = "unchanged (bound %g)" % m["bound"]
            print("%-11s %-22s %-6s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s"
                  % (workload, m["name"], m["unit"], ma, mb, 100 * change,
                     100 * sa, 100 * sb, verdict))
    return 1 if regressed else 0


def sweep(args):
    rc = build()
    if rc:
        return rc
    runs = []
    out = os.path.join(".bench_build", "sweep-run.json")
    for workload in WORKLOADS:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, _ = run_workload(binary(), workload, seed, args.seconds,
                                   args.trace, out=out, capture=True)
            if code:
                return fail("%s seed %d exited %d" % (workload, seed, code))
            with open(os.path.join(ROOT, out)) as f:
                runs.append(json.load(f))
    with open(args.sweep, "w") as f:
        json.dump({"build": runs[0]["build"], "runs": runs}, f, indent=1)
        f.write("\n")
    reports = load_reports(args.sweep)
    print("%-11s %-22s %14s %8s %8s" % ("workload", "metric", "median",
                                        "spread", "bound"))
    for workload in WORKLOADS:
        for m in spec()["end_to_end"]:
            vals = [r[m["name"]] for r in reports.get(workload, [])]
            if vals:
                med, sp = spread(vals)
                print("%-11s %-22s %14.6g %7.2f%% %7.0f%%" % (
                    workload, m["name"], med, 100 * sp, 100 * m["bound"]))
    return 0


def smoke(exe):
    bench = spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            with tempfile.NamedTemporaryFile(
                    dir=os.path.join(ROOT, ".bench_build"),
                    suffix=".json") as tf:
                code, out = run_workload(exe, workload, 1, 0.5, trace,
                                         trace_out=tf.name if trace else None,
                                         capture=True)
                tag = "%s trace=%d" % (workload, trace)
                if code:
                    problems.append("%s: exit code %d" % (tag, code))
                    continue
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    problems.append("%s: %d of %d outputs failed" % (
                        tag, result["failed"], result["attempted"]))
                want = bench["per_layer" if trace else "end_to_end"]
                for m in want:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append("%s: metric %s (%s) missing" % (
                            tag, m["name"], m["unit"]))
                extra = set(result["metrics"]) - {m["name"] for m in want}
                if extra:
                    problems.append("%s: metrics not in BENCHMARK.json: %s"
                                    % (tag, sorted(extra)))
                if trace:
                    with open(tf.name) as f:
                        if not json.load(f).get("traceEvents"):
                            problems.append(tag + ": empty trace file")
                for name, pinned in PINNED_DEVICE.get(
                        workload if not trace else "", {}).items():
                    value = result["metrics"][name]["value"]
                    if round(value, 4) != pinned:
                        problems.append("%s: %s = %r, pinned %r" % (
                            tag, name, value, pinned))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float,
                    help="window length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace-out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--sweep", metavar="SET.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this darmbench binary (no build)")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]

    if args.compare:
        return compare(*args.compare)
    if args.sweep:
        return sweep(args)
    if args.smoke:
        if not args.binary:
            rc = build()
            if rc:
                return rc
        return smoke(args.binary or binary())
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    rc = build()
    if rc:
        return rc
    code, _ = run_workload(binary(), args.workload, args.seed, args.seconds,
                           args.trace, out=args.out, trace_out=args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
