#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports the spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--same-seed]
                                [--workloads a,b] [--out FILE]

Run i uses seed seed0 + i, or seed0 every time with --same-seed, which
leaves only the run-to-run noise of the host. For every end-to-end metric
of every workload it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median, beside the metric's bound from
BENCHMARK.json. --out writes the same numbers, every run's value and
the provenance block of each workload's first result file as JSON. Exits 1
when a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    report = {"runs": args.runs, "seed0": args.seed0,
              "same_seed": args.same_seed,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    seeds = [args.seed0 + (0 if args.same_seed else i)
             for i in range(args.runs)]
    for workload in args.workloads.split(","):
        values, provenance = {}, None
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} failed ({proc.returncode})",
                      file=sys.stderr)
                sys.exit(1)
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if provenance is None:
                path = os.path.join(ROOT, ".bench_build", "results",
                                    f"{workload}-seed{seed}-trace0.json")
                with open(path) as f:
                    provenance = json.load(f)["provenance"]
        print(f"{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        rows = {"provenance": provenance}
        for metric in spec["end_to_end"]:
            xs = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "values": xs}
            print(f"  {metric['name']:16s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
                  f"(bound {metric['bound']})")
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
