"""One benchmark job: a fresh interpreter that imports rmclass and runs one
workload, so every job pays the cold cell build a CLI user pays.

    python3 perfbench/job.py WORKLOAD MODE SEED WORK_DIR

MODE is `setup` (import, and load the reference table for verify9-t2,
then exit), `count` (run with counters) or `trace` (run with counters and
spans). The program's own output comes first; the last line is
`PERFBENCH_JOB <json>` with the job's times and counts. Started by run.py
with PYTHONPATH set to the checkout's src/.
"""

import sys
import time

WORKLOAD, MODE, SEED, WORK_DIR = sys.argv[1:5]

# everything before this point is interpreter start-up; the import below
# is the program's own set-up
T_IMPORT = time.monotonic()
if WORKLOAD == "table9":
    import rmclass
else:
    import rmclass.cli
T_READY = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Probe, layer_metrics  # noqa: E402

CLI_ARGS = {
    "query10": ["count", "--n", "10", "--s", "10", "--k", "8"],
    "verify9-t2": ["verify", "--max-n", "9", "--threads", "2"],
}


def run_table9(seed: int) -> int:
    burnside = sys.modules["rmclass.burnside"]
    pairs = burnside.all_pairs(9)
    random.Random(seed).shuffle(pairs)
    results = burnside.count_pairs(9, pairs)
    for (k, s), res in sorted(results.items()):
        print(f"pair n=9 k={k} s={s} count={res.count}")
    return 0


def main() -> int:
    report = {"import_s": T_READY - T_IMPORT, "ready": T_READY,
              "rmclass_file": rmclass.__file__}
    if MODE == "setup":
        if WORKLOAD == "verify9-t2":
            rmclass.cli.load_oracle()
            report["ready"] = time.monotonic()
        print("PERFBENCH_JOB " + json.dumps(report), flush=True)
        return 0

    work_dir = Path(WORK_DIR)
    probe = Probe(MODE, work_dir)
    probe.install()
    if WORKLOAD == "table9":
        code = run_table9(int(SEED))
    else:
        code = rmclass.cli.main(CLI_ARGS[WORKLOAD])
    report["done"] = time.monotonic()
    sys.stdout.flush()

    probe.collect_workers()
    if probe.ready is not None:
        report["ready"] = probe.ready
    counts = probe.exact_counts()
    report["counts"] = counts
    report["exit"] = code
    if probe.tracing:
        report["layers"] = layer_metrics(probe.spans, counts)
        names = sorted({s[1] for s in probe.spans})
        index = {n: i for i, n in enumerate(names)}
        trace = {"workload": WORKLOAD, "clock": "time.monotonic",
                 "columns": ["id", "name", "start", "end", "parent"],
                 "names": names,
                 "spans": [[s[0], index[s[1]], s[2], s[3], s[4]]
                           for s in probe.spans]}
        (work_dir / "trace.json").write_text(json.dumps(trace))
    print("PERFBENCH_JOB " + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
