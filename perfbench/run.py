"""rmclass benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload {table9,query10,verify9-t2}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from src/ next to this
directory. Closed loop with one client: each job is a fresh interpreter
(perfbench/job.py) started after the previous one has exited, and a job
runs one whole workload. Workloads and why they were chosen:

- table9: count_pairs(9, all_pairs(9)) in one process. 55 (k, s) pairs
  over one cell build; the rank phase takes most of the time.
- query10: `rmclass count --n 10 --s 10 --k 8`. One pair with a
  dimension-11 window; the n = 10 cell build and the degree-10 images take
  the time, the rank phase is almost bypassed.
- verify9-t2: `rmclass verify --max-n 9 --threads 2`. 97 reference rows
  for n = 3..9, through the 2-worker process pool and the reference table
  loader.

--trace 0 runs jobs with counters only, as many as fit in --seconds, each
after a batch of set-up probes (start an interpreter, import rmclass, load
the reference table for verify9-t2, exit), and fills the rest of the time
with probes. Wall and CPU time are means over the run's jobs, peak RSS the
largest over them, and set-up time the median over jobs and probes.
--trace 1 runs one job with counters and one with spans, and reports the
per-layer metrics of the traced job; their exact counts must agree.

Every count a job produces is checked against the reference table shipped
in src/rmclass/data. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
class counts, not jobs. Each run also appends a record with the
environment to perfbench/out/results.jsonl, and a traced run writes its
spans to perfbench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = SRC / "rmclass" / "data" / "published_counts.txt"
OUT = HERE / "out"

WORKLOADS = ("table9", "query10", "verify9-t2")
VERIFY_WORKERS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "conjclasses.gl_classes_s": "s",
    "conjclasses.gl_classes": "count",
    "conjclasses.affine_cells_s": "s",
    "conjclasses.cells": "count",
    "linrep.monomial_images_s": "s",
    "linrep.image_steps": "count",
    "linrep.fixed_space_log2_s": "s",
    "linrep.fixed_space_calls": "count",
    "gf2.rank_of_rows_s": "s",
    "gf2.rows_eliminated": "count",
    "gf2.pivot_frac": "ratio",
    "burnside.count_pairs_s": "s",
    "burnside.division_s": "s",
    "burnside.serial_work_s": "s",
    "burnside.parallel_eff": "ratio",
    "burnside.slice_imbalance": "ratio",
    "cli.import_s": "s",
    "cli.oracle_load_s": "s",
    "trace.overhead_frac": "ratio",
}

RUN_LIMIT_S = 170       # every run ends well inside 180 s
# Set-up probes take about 0.1 s each. A batch runs before every job, so
# they sample the machine at several points of the run rather than only at
# its end: its speed drifts by tens of percent over tens of seconds.
PROBES_PER_JOB = 10
PROBE_RESERVE_S = 1.0   # time for the next batch of probes
MAX_PROBES = 200


# --- reference counts ---------------------------------------------------

def load_references() -> list[tuple[str, int, int, int, int]]:
    """(table, n, k, s, count) rows of the shipped reference file, read
    here rather than through rmclass so a broken loader cannot pass."""
    rows = []
    for raw in REFERENCE_FILE.read_text(encoding="ascii").splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            tag, n, k, s, value = line
            rows.append((tag, int(n), int(k), int(s), int(value)))
    return rows


def reference_value(refs: dict, n: int, k: int, s: int) -> int | None:
    """The reference count of (n, k, s), else that of its mirror
    (n, n-1-s, n-1-k), which has the same count; None if neither ships."""
    value = refs.get((n, k, s))
    return refs.get((n, n - 1 - s, n - 1 - k)) if value is None else value


# --- correctness of one job ---------------------------------------------
# each returns (attempted, failed, problems) in class counts

def check_table9(job, rows):
    refs = {(n, k, s): v for _, n, k, s, v in rows}
    pairs = [(k, s) for k in range(-1, 9) for s in range(k + 1, 10)]
    got = {}
    for line in job["lines"]:
        m = re.fullmatch(r"pair n=9 k=(-?\d+) s=(\d+) count=(\d+)", line)
        if m:
            got[(int(m[1]), int(m[2]))] = int(m[3])
    problems = []
    if job["exit"] != 0:
        problems.append(f"exit code {job['exit']}")
    for k, s in pairs:
        count = got.get((k, s))
        expected = reference_value(refs, 9, k, s)
        if count is None:
            problems.append(f"k={k} s={s}: no count")
        elif expected is None:
            # only (-1, 9) is its own mirror without a row; count_pairs
            # raises unless its Burnside sum divides exactly
            if count < 1:
                problems.append(f"k={k} s={s}: count {count}")
        elif count != expected:
            problems.append(f"k={k} s={s}: {count} != {expected}")
    failed = len(pairs) if job["exit"] != 0 else len(problems)
    return len(pairs), failed, problems


def check_query10(job, rows):
    refs = {(n, k, s): v for _, n, k, s, v in rows}
    expected = reference_value(refs, 10, 8, 10)
    counts = [int(m[1]) for line in job["lines"] if (m := re.fullmatch(
        r"n=10 s=10 k=8 provider=canonical cells=\d+ elapsed=\S+ "
        r"count=(\d+)", line))]
    problems = []
    if job["exit"] != 0:
        problems.append(f"exit code {job['exit']}")
    if counts != [expected]:
        problems.append(f"count lines {counts}, expected [{expected}]")
    return 1, int(bool(problems)), problems


def check_verify9(job, rows):
    wanted = {(t, n, k, s): v for t, n, k, s, v in rows if n <= 9}
    seen = {}
    for line in job["lines"]:
        m = re.fullmatch(r"check table=(\w+) n=(\d+) k=(-?\d+) s=(\d+) "
                         r"expected=(\d+) got=(\d+) status=(\w+)", line)
        if m:
            key = (m[1], int(m[2]), int(m[3]), int(m[4]))
            seen[key] = (int(m[5]), int(m[6]), m[7])
    problems = []
    if job["exit"] != 0:
        problems.append(f"exit code {job['exit']}")
    bad = 0
    for key, value in wanted.items():
        if seen.get(key) != (value, value, "PASS"):
            bad += 1
            problems.append(f"{key}: {seen.get(key)}, expected {value}")
    extra = set(seen) - set(wanted)
    if extra:
        problems.append(f"unexpected check lines {sorted(extra)}")
    summary = f"summary total={len(wanted)} pass={len(wanted)} fail=0"
    summary_ok = summary in job["lines"]
    if not summary_ok:
        problems.append(f"no line {summary!r}")
    failed = (len(wanted) if job["exit"] != 0 or not summary_ok
              else bad + len(extra))
    return len(wanted), failed, problems


CHECKS = {"table9": check_table9, "query10": check_query10,
          "verify9-t2": check_verify9}


# --- jobs -----------------------------------------------------------------

def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: str, mode: str, seed: int, work_dir: Path,
          deadline: float) -> dict:
    """Run one job to completion; returns its times, usage and output.
    The job leads its own process group so a job that overruns the
    deadline is killed together with its pool workers."""
    cmd = [sys.executable, str(HERE / "job.py"), workload, mode, str(seed),
           str(work_dir)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - launch), _kill_group,
                            (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
    finally:
        proc.stdout.close()
        # wait4 rather than Popen.wait: its usage covers the job and the
        # pool workers it has reaped
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        timer.join()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    report = None
    if lines and lines[-1].startswith("PERFBENCH_JOB "):
        report = json.loads(lines.pop()[len("PERFBENCH_JOB "):])
    job = {"launch": launch, "wall": end - launch,
           "cpu": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB
           "exit": proc.returncode, "lines": lines, "report": report}
    if report is not None:
        job["setup"] = report["ready"] - launch
        if not Path(report["rmclass_file"]).resolve().is_relative_to(SRC):
            job["exit"] = job["exit"] or 1
            job["lines"].append(f"rmclass imported from "
                                f"{report['rmclass_file']}, not from src/")
    elif proc.returncode == 0:
        job["exit"] = 1
    return job


def check(workload, job, rows, problems):
    attempted, failed, found = CHECKS[workload](job, rows)
    if job["report"] is None or "counts" not in job["report"]:
        found.append("job printed no report")
        failed = attempted
    problems.extend(found)
    if found:
        tail = "\n  ".join(job["lines"][-5:])
        problems.append(f"last output lines:\n  {tail}")
    return attempted, failed


def same_counts(jobs, problems) -> dict | None:
    """The exact counts every job of the run reported; they must agree."""
    counts = [j["report"]["counts"] for j in jobs
              if j["report"] and "counts" in j["report"]]
    for other in counts[1:]:
        if other != counts[0]:
            problems.append(f"exact counts differ between jobs: "
                            f"{counts[0]} vs {other}")
    if counts and min(counts[0].values()) <= 0:
        problems.append(f"a count was not observed: {counts[0]}")
    return counts[0] if counts else None


# --- environment ----------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- one run ----------------------------------------------------------------

def measure(workload, seed, seconds, rows, work_dir, problems):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    jobs, probes = [], []
    while True:
        probes += [spawn(workload, "setup", seed, work_dir, deadline)
                   for _ in range(PROBES_PER_JOB)]
        jobs.append(spawn(workload, "count", seed, work_dir, deadline))
        used = time.monotonic() - start
        if used + max(j["wall"] for j in jobs) > seconds - PROBE_RESERVE_S:
            break
    while time.monotonic() - start < seconds and len(probes) < MAX_PROBES:
        probes.append(spawn(workload, "setup", seed, work_dir, deadline))
    bad = [p for p in probes if p["exit"] != 0 or p["report"] is None]
    if bad:
        problems.append(f"{len(bad)} set-up probes failed: "
                        f"{bad[0]['lines'][-3:]}")

    attempted = failed = 0
    for job in jobs:
        a, f = check(workload, job, rows, problems)
        attempted += a
        failed += f
    counts = same_counts(jobs, problems)
    setups = [j["setup"] for j in jobs + probes if "setup" in j]
    samples = {"jobs": len(jobs), "probes": len(probes),
               "job_walls": [j["wall"] for j in jobs], "counts": counts}
    if not setups:
        return attempted, failed, {}, samples
    # wall and CPU time are averaged over the run's 2 to 6 jobs: with
    # contention noise of about 12% per job, the mean of so few is steadier
    # than their median
    metrics = {
        "wall_s": statistics.fmean(j["wall"] for j in jobs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.fmean(j["cpu"] for j in jobs),
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
    }
    return attempted, failed, metrics, samples


def measure_traced(workload, seed, rows, work_dir, problems):
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(workload, "count", seed, work_dir, deadline)
    traced = spawn(workload, "trace", seed, work_dir, deadline)
    attempted = failed = 0
    for job in (plain, traced):
        a, f = check(workload, job, rows, problems)
        attempted += a
        failed += f
    counts = same_counts([plain, traced], problems)
    if (work_dir / "trace.json").exists():
        shutil.move(work_dir / "trace.json", OUT / f"trace-{workload}.json")
    report = traced["report"]
    if not report or "layers" not in report or not plain["report"]:
        return attempted, failed, {}, {"jobs": 2, "counts": counts}
    metrics = dict(report["layers"])
    metrics.update((k, v) for k, v in report["counts"].items()
                   if k in PER_LAYER)
    metrics["cli.import_s"] = report["import_s"]
    metrics["trace.overhead_frac"] = (
        (report["done"] - traced["launch"])
        / (plain["report"]["done"] - plain["launch"]) - 1)
    return attempted, failed, metrics, {"jobs": 2, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rmclass" / "__init__.py").is_file() \
            or not REFERENCE_FILE.is_file():
        print(f"error: no rmclass sources under {SRC}", file=sys.stderr)
        return 2
    cpus = os.cpu_count() or 1
    if args.workload == "verify9-t2" and cpus < VERIFY_WORKERS:
        # reported as skipped rather than run with fewer workers, which
        # would measure another workload
        print(f"skipped: verify9-t2 needs {VERIFY_WORKERS} CPUs, "
              f"this machine has {cpus}", file=sys.stderr)
        return 3
    rows = load_references()

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    problems: list[str] = []
    try:
        if args.trace:
            attempted, failed, metrics, samples = measure_traced(
                args.workload, args.seed, rows, work_dir, problems)
            units = PER_LAYER
        else:
            attempted, failed, metrics, samples = measure(
                args.workload, args.seed, args.seconds, rows, work_dir,
                problems)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = not problems and failed == 0

    for problem in problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"counts {json.dumps(samples.get('counts'), sort_keys=True)}")
    print(f"{args.workload} fail_frac = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} counts)")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "cpu_count": cpus,
              "commit": git_commit(), "samples": samples,
              "attempted": attempted, "failed": failed, "correct": correct,
              "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")

    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()
                          if name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
