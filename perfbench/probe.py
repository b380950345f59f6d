"""Counters and spans around the calls into rmclass's modules.

The probe replaces module attributes of an imported rmclass with thin
wrappers, so every call the program makes through that name passes through
the benchmark's own code; nothing under src/ is edited. Each wrapper
replaces the name at the place the caller looks it up (burnside imports
`monomial_images` into its own namespace, so the wrapper goes there).

Two modes:

- count: wrappers only add to counters (no clock reads). Untraced runs use
  this, so the exact counts can be compared between untraced and traced
  jobs at a cost of one extra Python call per wrapped call.
- trace: wrappers also record a span (id, name, start, end, parent) on
  time.monotonic(), which on Linux is one clock shared by all processes,
  so spans from pool workers line up with the parent's.

Pool workers are forked from the job process and inherit the wrappers.
Each worker writes what it recorded during one slice of cells to a file in
the job's work directory before returning the slice's result; the job
merges those files after the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from math import comb
from pathlib import Path

COUNTS = ("image_steps", "fixed_space_calls", "rows_eliminated", "rank_sum")

# (module, attribute, span name): the attribute is looked up by the caller
# at call time, so replacing it routes the program's calls through the probe
SPANS = (
    ("rmclass.conjclasses", "gl_classes", "conjclasses.gl_classes"),
    ("rmclass.burnside", "affine_cells", "conjclasses.affine_cells"),
    ("rmclass.burnside", "resolve_cells", "burnside.resolve_cells"),
    ("rmclass.cli", "resolve_cells", "burnside.resolve_cells"),
    ("rmclass.burnside", "count_pairs", "burnside.count_pairs"),
    ("rmclass.cli", "count_pairs", "burnside.count_pairs"),
    ("rmclass.burnside", "_pair_partial_sums", "burnside.slice"),
    ("rmclass.burnside", "monomial_images", "linrep.monomial_images"),
    ("rmclass.burnside", "fixed_space_log2", "linrep.fixed_space_log2"),
    ("rmclass.linrep", "rank_of_rows", "gf2.rank_of_rows"),
    ("rmclass.cli", "load_oracle", "cli.load_oracle"),
)


@functools.lru_cache(maxsize=None)
def _image_steps(n: int, max_degree: int) -> int:
    """Entries u != 0 with |u| <= max_degree that monomial_images fills."""
    return sum(comb(n, i) for i in range(1, min(max_degree, n) + 1))


class Probe:
    def __init__(self, mode: str, work_dir: Path):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.tracing = mode == "trace"
        self.work_dir = work_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.shipped = 0
        self.ready = None  # monotonic time the first load_oracle returned
        self._reset()

    def _reset(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        # cells and GL classes are kept per n, so a repeated build of the
        # same n is not counted twice
        self.cells_by_n: dict[int, int] = {}
        self.gl_by_n: dict[int, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []

    # --- installation -------------------------------------------------

    def install(self):
        wrapped = {}
        for mod_name, attr, span in SPANS:
            mod = sys.modules.get(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            key = id(orig)
            if key not in wrapped:
                wrapped[key] = self._wrap(orig, span)
            setattr(mod, attr, wrapped[key])
        if self.tracing and "rmclass.burnside" in sys.modules:
            burnside = sys.modules["rmclass.burnside"]
            burnside.ProcessPoolExecutor = self._traced_pool(
                burnside.ProcessPoolExecutor)

    def _wrap(self, orig, span):
        after = getattr(self, "_after_" + span.split(".")[1], None)
        is_slice = span == "burnside.slice"
        is_rank = span == "gf2.rank_of_rows"

        # functools.wraps keeps __module__ and __qualname__, so the pool
        # can still pickle the slice function by reference
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if is_slice:
                self._enter_slice()
            if is_rank and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]
            if self.tracing:
                sid = self._open()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close(sid, span)
            else:
                result = orig(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            if is_slice:
                self._leave_slice()
            return result

        return wrapper

    def _traced_pool(self, base):
        probe = self

        class TracedPool(base):
            def __enter__(self):
                self._probe_sid = probe._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    probe._close(self._probe_sid, "burnside.pool")

        return TracedPool

    # --- spans ----------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, None, time.monotonic(), None, parent])
        self.stack.append(sid)
        return sid

    def _close(self, sid, name):
        rec = self.spans[sid]
        rec[1] = name
        rec[3] = time.monotonic()
        self.stack.pop()

    # --- counters (args and result of the wrapped call) ---------------

    def _after_gl_classes(self, args, kwargs, result):
        self.gl_by_n[args[0]] = len(result)

    def _after_count_pairs(self, args, kwargs, result):
        for res in result.values():
            self.cells_by_n[res.n] = res.cells

    def _after_monomial_images(self, args, kwargs, result):
        g = args[0]
        max_degree = args[1] if len(args) > 1 else kwargs.get("max_degree")
        self.counts["image_steps"] += _image_steps(
            g.n, g.n if max_degree is None else max_degree)

    def _after_fixed_space_log2(self, args, kwargs, result):
        self.counts["fixed_space_calls"] += 1

    def _after_rank_of_rows(self, args, kwargs, result):
        self.counts["rows_eliminated"] += len(args[0])
        self.counts["rank_sum"] += result

    def _after_load_oracle(self, args, kwargs, result):
        if self.ready is None:
            self.ready = time.monotonic()

    # --- pool workers ---------------------------------------------------

    def _enter_slice(self):
        if os.getpid() != self.pid:
            # first call in a forked worker: drop what the parent had
            # recorded before the fork
            self.pid = os.getpid()
            self.in_worker = True
            self._reset()

    def _leave_slice(self):
        if not self.in_worker:
            return
        path = self.work_dir / f"worker-{self.pid}-{self.shipped}.json"
        self.shipped += 1
        path.write_text(json.dumps({"counts": self.counts,
                                    "spans": self.spans}))
        self._reset()

    def collect_workers(self):
        """Merge what pool workers shipped, then delete their files.
        Worker spans keep their own ids offset past the job's ids; their
        roots (slices) get the pool span that contains their start as
        parent."""
        pools = [s for s in self.spans if s[1] == "burnside.pool"]
        for path in sorted(self.work_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for key, value in data["counts"].items():
                self.counts[key] += value
            base = len(self.spans)
            for sid, name, start, end, parent in data["spans"]:
                if parent is None:
                    parent = next((p[0] for p in pools
                                   if p[2] <= start <= p[3]), None)
                else:
                    parent += base
                self.spans.append([sid + base, name, start, end, parent])

    def exact_counts(self) -> dict[str, int]:
        return {"conjclasses.cells": sum(self.cells_by_n.values()),
                "conjclasses.gl_classes": sum(self.gl_by_n.values()),
                "linrep.image_steps": self.counts["image_steps"],
                "linrep.fixed_space_calls": self.counts["fixed_space_calls"],
                "gf2.rows_eliminated": self.counts["rows_eliminated"],
                "gf2.rank_sum": self.counts["rank_sum"]}


def layer_metrics(spans, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced job from its merged spans.

    Self time is a span's duration minus the durations of its children.
    A "section" is one parallel part of count_pairs: a pool with its
    slices, or a single slice run in the caller's process."""
    dur = {s[0]: s[3] - s[2] for s in spans}
    children: dict[int, list[int]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s[0])
    name = {s[0]: s[1] for s in spans}

    def total(span_name):
        return sum(dur[s[0]] for s in spans if s[1] == span_name)

    def self_time(span_name):
        return sum(dur[i] - sum(dur[c] for c in children.get(i, ()))
                   for i in dur if name[i] == span_name)

    resolve_in_count = sum(
        dur[c] for i in dur if name[i] == "burnside.count_pairs"
        for c in children.get(i, ()) if name[c] == "burnside.resolve_cells")

    sections = []  # (workers, wall, slice costs)
    for i in dur:
        if name[i] == "burnside.pool":
            costs = [dur[c] for c in children.get(i, ())
                     if name[c] == "burnside.slice"]
            sections.append((len(costs), dur[i], costs))
        elif name[i] == "burnside.slice" and (
                spans[i][4] is None or name[spans[i][4]] != "burnside.pool"):
            sections.append((1, dur[i], [dur[i]]))
    serial = sum(sum(c) for _, _, c in sections)
    capacity = sum(w * wall for w, wall, _ in sections)
    max_sum = sum(max(c) for _, _, c in sections if c)
    mean_sum = sum(sum(c) / len(c) for _, _, c in sections if c)

    rows = counts["gf2.rows_eliminated"]
    return {
        "conjclasses.gl_classes_s": total("conjclasses.gl_classes"),
        "conjclasses.affine_cells_s": self_time("conjclasses.affine_cells"),
        "linrep.monomial_images_s": total("linrep.monomial_images"),
        "linrep.fixed_space_log2_s": total("linrep.fixed_space_log2"),
        "gf2.rank_of_rows_s": total("gf2.rank_of_rows"),
        "burnside.count_pairs_s":
            total("burnside.count_pairs") - resolve_in_count,
        "burnside.division_s": self_time("burnside.count_pairs"),
        "burnside.serial_work_s": serial,
        "burnside.parallel_eff": serial / capacity if capacity else 0.0,
        "burnside.slice_imbalance": max_sum / mean_sum if mean_sum else 0.0,
        "cli.oracle_load_s": total("cli.load_oracle"),
        "gf2.pivot_frac": counts["gf2.rank_sum"] / rows if rows else 0.0,
    }
