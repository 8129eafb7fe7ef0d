#!/usr/bin/env python3
"""Builds the solsched benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

W is one of the workloads in BENCHMARK.json. --trace 0 measures the
end-to-end metrics for S seconds; --trace 1 runs the workload's traced
replay and reports the per-layer metrics. The first run configures and
builds perfbench/CMakeLists.txt into .bench_build/ (later runs rebuild
incrementally); work files go to .bench_build/work/ and are removed, and
one result file per run is written to .bench_build/results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, each metric carrying the unit
BENCHMARK.json gives it. The exit code is 0 only when every operation
succeeded and every correctness check held; a tree without the solsched
sources fails before printing a result.

--smoke runs every workload untraced and traced on the smallest inputs
(seed 2015) and checks that every metric BENCHMARK.json lists is emitted,
that nothing failed, that the decision digests match perfbench/
reference.json and that the traced runs cover at least 95% of their
replay time with spans. It exits 0 only when all of that holds.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "0.2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; stdout stays clean. On
    timeout the step's whole process group (make, compilers) is killed."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no solsched sources beside perfbench/ (src/CMakeLists.txt)")
    build_dir = os.path.join(BUILD, "perfbench")
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline)
    run_quiet(["cmake", "--build", build_dir, "--target", "solsched_benchmark",
               "-j", jobs], deadline)
    return os.path.join(build_dir, "solsched_benchmark")


def run_workload(binary, workload, seed, seconds, trace, digest, smoke):
    """Runs one workload in its own process. Returns its summary lines, its
    result object and its exit code."""
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    # Relative paths keep the serve socket under the AF_UNIX length limit
    # however deep the checkout sits.
    work_dir = os.path.join(".bench_build", "work", f"{tag}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--out", os.path.join(results, f"{tag}.json")]
    if digest:
        cmd += ["--expect-digest", digest]
    if smoke:
        cmd += ["--smoke", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited {proc.returncode} without a result")
    return lines[:-1], json.loads(lines[-1]), proc.returncode


def with_units(spec, workload, result, trace):
    """The result's metrics in BENCHMARK.json's order, each with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = sorted(set(result["metrics"]) - {m["name"] for m in wanted})
    if unknown:
        fail(f"{workload}: metrics not listed in BENCHMARK.json: "
             f"{', '.join(unknown)}")
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not trace:
                fail(f"{workload} did not report {m['name']}")
            value = 0.0  # A layer this workload never calls.
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def smoke(binary, spec, reference):
    """Every workload, untraced and traced, at smoke length."""
    seed = reference["seed"]
    emitted = set()
    problems = []
    start = time.monotonic()
    for w in spec["workloads"]:
        workload = w["name"]
        for trace in (0, 1):
            _, result, code = run_workload(
                binary, workload, seed, SMOKE_SECONDS, trace,
                reference["smoke_digests"][workload], True)
            with_units(spec, workload, result, trace)
            emitted |= set(result["metrics"]) if trace else set()
            coverage = result["metrics"].get("trace.coverage", 1.0)
            print(f"{workload:16s} trace {trace}  attempted "
                  f"{result['attempted']:8d}  failed {result['failed']}  "
                  f"digest {result['digest']}"
                  + (f"  coverage {coverage:.4f}" if trace else ""))
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: exited {code}, "
                                f"{result['failed']} failed (see stderr)")
            if trace and coverage < 0.95:
                problems.append(f"{workload}: trace coverage {coverage} < 0.95")
    never = sorted({m["name"] for m in spec["per_layer"]} - emitted)
    if never:
        problems.append(f"per-layer metrics no workload emits: {', '.join(never)}")
    print(f"smoke: {time.monotonic() - start:.1f} s")
    for problem in problems:
        print(f"perfbench smoke: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=reference["seed"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not args.smoke and args.workload is None:
        fail("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        smoke(binary, spec, reference)
    digest = (reference["digests"][args.workload]
              if args.seed == reference["seed"] else "")
    lines, result, code = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace, digest, False)
    for line in lines:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": with_units(spec, args.workload, result,
                                            args.trace)}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
