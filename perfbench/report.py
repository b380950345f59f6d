"""Run the benchmark over several seeds and print every metric with its unit.

    python3 perfbench/report.py                      # each workload, seed 1
    python3 perfbench/report.py --seeds 10 --trace --out perfbench/baseline.json

For each workload it runs `run.py --trace 0` once per seed and prints, per
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), plus fail_frac: failed
counts over attempted counts. With --trace it adds one traced run per
workload and prints its per-layer metrics. Runs are sequential; each takes
the run_seconds of BENCHMARK.json unless --seconds is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS, git_commit


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).parent / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output, exit {proc.returncode}"
                 f"\n{proc.stderr}")
    counts = None
    for line in lines[:-1]:
        if line.startswith("problem:"):
            print(f"  {workload} seed {seed}: {line}")
        elif line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
    return dict(json.loads(lines[-1]), counts=counts)


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None,
                        help="write the result set to this JSON file")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"commit": git_commit(), "python": platform.python_version(),
           "cpu_count": os.cpu_count(), "seconds": args.seconds,
           "seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, 0)
                   for seed in seeds]
        traced = (run_once(workload, seeds[0], args.seconds, 1)
                  if args.trace else None)
        counts = [r["counts"] for r in results + [traced] if r]
        # exact counts must repeat across seeds and between traced and
        # untraced runs
        if any(c != counts[0] for c in counts):
            print(f"  {workload}: exact counts differ between runs: {counts}")
            all_correct = False
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        entry = {"runs": len(results), "attempted": attempted,
                 "failed": failed, "fail_frac": failed / attempted,
                 "counts": counts[0], "end_to_end": {}}
        print(f"{workload}: {len(results)} runs of {args.seconds} s, "
              f"fail_frac = {failed / attempted:.6g} "
              f"({failed} of {attempted} counts)")
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                print(f"  {name}: not measured")
                continue
            s = summary(values)
            entry["end_to_end"][name] = dict(s, unit=unit)
            line = f"  {name} = {s['median']:.6g} {unit} (median)"
            if "spread" in s:
                line += (f", quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
                         f"spread {s['spread']:.2%} "
                         f"of bound {bounds.get(name, 0):.0%}")
            print(line)
        print(f"  exact counts: {counts[0]}")
        if traced:
            all_correct &= traced["correct"]
            entry["per_layer"] = dict(traced["metrics"])
            print(f"  per layer (traced run, seed {seeds[0]}):")
            for name, unit in PER_LAYER.items():
                if name in traced["metrics"]:
                    value = traced["metrics"][name]["value"]
                    print(f"    {name} = {value:.6g} {unit}")
        out["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
