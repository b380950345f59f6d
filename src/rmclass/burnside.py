"""Exact class counting by averaging fixed points over cells of the group.

For each cell (one representative g, exact size) the number of coefficient
vectors fixed by g is 2^(d - rank(tau_g xor I)); the class count is the
size-weighted sum over cells divided by |AGL(n,2)|. The rank is taken
with the free coordinates of g's linear part peeled (_peel_run).
The canonical cells are the rational cells of conjclasses, unions of the
conjugacy classes of the generators of one cyclic subgroup. Everything is
exact integer arithmetic; a nonzero remainder in the final division means
the cell decomposition is broken and raises instead of rounding.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass
from itertools import groupby

from .anf import check_params
from .conjclasses import (
    CellDecompositionError,
    ConjCell,
    exhaustive_cells,
    import_cells,
    rational_cells,
)
from .gf2 import BitMatrix, BitVector
from .group import AffineElement, group_orders
from .linrep import fixed_space_log2, monomial_images, translated_images

PROVIDERS = ("exhaustive", "canonical", "import")


def __getattr__(name):
    # the process pool is imported on first use, so a serial count never
    # loads concurrent.futures and multiprocessing; from then on, or once
    # replaced, ProcessPoolExecutor is a plain module attribute
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InexactDivisionError(ArithmeticError):
    """The Burnside sum is not a positive multiple of the group order."""


@dataclass(frozen=True)
class CountResult:
    n: int
    s: int
    k: int
    count: int
    cells: int
    elapsed: float


def fix_count(g: AffineElement, s: int, k: int) -> int:
    """Number of coefficient vectors fixed by g: 2^(d - rank(tau xor I))."""
    check_params(g.n, s, k)
    return 1 << fixed_space_log2(monomial_images(g, s, k), g.n, [(k, s)])[0]


def resolve_cells(n: int, provider: str = "canonical", *,
                  file=None) -> list[ConjCell]:
    """Map a provider tag to a validated cell list for n."""
    if file is not None and provider != "import":
        raise ValueError(f"cell file {file} is read only by provider "
                         f"'import', not {provider!r}")
    if provider == "exhaustive":
        return exhaustive_cells(n)
    if provider == "canonical":
        return rational_cells(n)
    if provider == "import":
        cells = import_cells(file)
        if cells[0].rep.n != n:
            raise ValueError(
                f"cell file is for n={cells[0].rep.n}, requested n={n}")
        return cells
    raise ValueError(f"unknown provider {provider!r}; expected {PROVIDERS}")


def _squeeze(bits: int, keep: int) -> int:
    """bits with only the positions set in the mask keep, renumbered
    from 0: bit i goes to the number of kept positions below i."""
    bits &= keep
    out = 0
    while bits:
        t = bits & -bits
        out |= 1 << (keep & t - 1).bit_count()
        bits ^= t
    return out


def _peel_run(n: int, run: list[ConjCell]):
    """The one statement of the peel: a run of cells with equal linear
    parts A, reduced by the free coordinates F of A, the coordinates whose
    row and column of A are e_i, so that A = A_K + I_F on the kept ones K.
    - A cell (A, b) with no bit of b in F leaves every x_i, i in F, alone;
      it peels all of F and is (A_K, b_K) on m = n - |F| variables.
    - A cell whose b touches F is conjugate to (A, b_K + e_y) for any y in
      F, by a map that is linear on F, fixes K and commutes with A. It
      keeps y as its affine coordinate, put on top, peels the other
      |F| - 1 and is (A_K + 1, b_K + e_y) on m + 1 variables, however
      many bits of F b has.
    Returns the run's reduced zero coset (A_K, 0) on m variables, r = |F|,
    and (size, kept, b) per cell in order: kept is 1 when the cell keeps
    y, and b is its reduced translation, with y as bit m."""
    a = run[0].rep.a
    keep = 0
    for i, row in enumerate(a.row_bits):
        if row != 1 << i:
            keep |= row | 1 << i
    m = keep.bit_count()
    rows = tuple(_squeeze(row, keep) for i, row in enumerate(a.row_bits)
                 if keep >> i & 1)
    peeled = []
    for cell in run:
        b = cell.rep.b.bits
        kept = 1 if b & ~keep else 0
        peeled.append((cell.size, kept, _squeeze(b, keep) | kept << m))
    return (AffineElement(m, BitMatrix(m, m, rows), BitVector(m, 0)),
            n - m, peeled)


@functools.lru_cache(maxsize=256)
def _peel_plan(n: int, r: int, pairs: tuple[tuple[int, int], ...]):
    """The windows a cell with r free coordinates is eliminated on, as
    (reduced windows, their smallest k, their largest s, terms per pair).
    A y-monomial of degree j in the r free variables carries the window
    shifted by j, so with m = n - r
        fixdim_n(k, s) = sum_j C(r, j) fixdim_m(max(k - j, -1), min(s - j, m)),
    and the terms of a pair are its (C(r, j), reduced window index) for
    the nonempty shifted windows; an empty one adds 0. With r = 0 the
    reduced windows are the pairs themselves."""
    m = n - r
    windows: dict[tuple[int, int], int] = {}
    terms = []
    for k, s in pairs:
        row = []
        for j in range(r + 1):
            w = (max(k - j, -1), min(s - j, m))
            if w[0] < w[1]:
                row.append((math.comb(r, j),
                            windows.setdefault(w, len(windows))))
        terms.append(tuple(row))
    return (tuple(windows), min(k for k, _ in windows),
            max(s for _, s in windows), tuple(terms))


def _pair_partial_sums(n: int, pairs: tuple[tuple[int, int], ...],
                       cells: list[ConjCell]) -> list[int]:
    """Size-weighted fixed-point sums of a slice of cells, one per pair.

    The slice is taken run by run (maximal blocks of consecutive cells with
    equal linear parts A), and each run is peeled as _peel_run states. Each
    cell makes one fixed_space_log2 call on the reduced windows of its
    peel, whose single elimination serves every one of them, and the
    n-variable fixdims are their convolution (_peel_plan). The images are
    built once per run, for the reduced zero coset, and every cell with a
    reduced translation derives its own from them (translated_images),
    whatever the order of the run's cells; a kept y is bit m of that
    translation. Such a cell peels one coordinate fewer, which moves its
    windows up at most a degree, so the build for the full peel serves it
    too."""
    sums = [0] * len(pairs)
    for _, run in groupby(cells, key=lambda c: c.rep.a):
        zero, r, peeled = _peel_run(n, list(run))
        _, k0, top, _ = _peel_plan(n, r, pairs)
        base = monomial_images(zero, top, k0)
        for size, kept, b in peeled:
            windows, k, s, terms = _peel_plan(n, r - kept, pairs)
            images = translated_images(base, zero.n, b, s, k) if b else base
            fixdims = fixed_space_log2(images, zero.n + kept, windows)
            for i, row in enumerate(terms):
                fixdim = 0
                for c, w in row:
                    fixdim += c * fixdims[w]
                sums[i] += size << fixdim
    return sums


def count_pairs(n: int, pairs, provider: str = "canonical", *,
                threads: int = 1, file=None,
                cells=None) -> dict[tuple[int, int], CountResult]:
    """Counts for several (k, s) pairs in one sweep, sharing the cell list
    and the per-run monomial images. Returns {(k, s): CountResult}; each
    result carries the elapsed time of the whole sweep, which starts once
    the cells are built and checked.

    Each cell is peeled and each run of cells with equal linear parts
    builds its images once, as _pair_partial_sums describes. With
    threads > 1 the runs go to at most min(threads, runs, CPUs) worker
    processes, whole runs, dealt in turn. A serial count never imports
    the process pool.

    Given cells must partition AGL(n,2), and every member of a cell must fix
    the same number of vectors as its representative in every window, as
    conjugate elements and generators of one cyclic subgroup do. Only the
    size sum and the representatives' n are checked here."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    # pairs loaded from JSON are lists, which do not hash
    pairs = tuple((k, s) for k, s in pairs)
    if not pairs:
        return {}
    for k, s in pairs:
        check_params(n, s, k)
    if len(set(pairs)) != len(pairs):
        raise ValueError("duplicate (k, s) pairs")
    if cells is None:
        cells = resolve_cells(n, provider, file=file)
    for c in cells:
        if c.rep.n != n:
            raise CellDecompositionError(
                f"a cell representative is for n={c.rep.n}, not n={n}")
    order = group_orders(n)[1]
    total_size = sum(c.size for c in cells)
    if total_size != order:
        raise CellDecompositionError(
            f"cell sizes sum to {total_size}, not |AGL({n},2)| = {order}")
    start = time.perf_counter()
    # runs: the maximal blocks of consecutive cells with equal linear parts
    runs = [list(run) for _, run in groupby(cells, key=lambda c: c.rep.a)]
    # never more processes than runs or CPUs
    workers = min(threads, len(runs), os.cpu_count() or 1)
    if workers > 1:
        # whole runs, so that each run's images are built in one slice only
        slices = [[] for _ in range(workers)]
        for i, run in enumerate(runs):
            slices[i % workers].extend(run)
        # a value patched onto the module attribute wins over the import
        executor = (globals().get("ProcessPoolExecutor")
                    or __getattr__("ProcessPoolExecutor"))
        with executor(max_workers=workers) as pool:
            partials = list(pool.map(_pair_partial_sums,
                                     [n] * workers, [pairs] * workers, slices))
        sums = [sum(p[i] for p in partials) for i in range(len(pairs))]
    else:
        sums = _pair_partial_sums(n, pairs, cells)
    elapsed = time.perf_counter() - start
    out = {}
    for (k, s), acc in zip(pairs, sums):
        q, rem = divmod(acc, order)
        if rem or q < 1:
            raise InexactDivisionError(
                f"n={n} s={s} k={k}: Burnside sum {acc} leaves remainder "
                f"{rem} mod |AGL({n},2)| and quotient {q}")
        out[(k, s)] = CountResult(n, s, k, q, len(cells), elapsed)
    return out


def count(n: int, s: int, k: int, provider: str = "canonical", *,
          threads: int = 1, file=None, cells=None) -> CountResult:
    """Number of equivalence classes of the (n, s, k) quotient space under
    the affine group, by the cell-weighted fixed-point average."""
    return count_pairs(n, [(k, s)], provider, threads=threads,
                       file=file, cells=cells)[(k, s)]


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Every valid (k, s) for this n: -1 <= k < s <= n."""
    return [(k, s) for k in range(-1, n) for s in range(k + 1, n + 1)]


def symmetry_check(n: int) -> list[tuple]:
    """Computes every N_{s,k} for this n and returns the mirror-pair
    violations of N_{s,k} == N_{n-1-k, n-1-s} (expected: none). Each
    violation is ((k, s), (mirror k, mirror s), count, mirror count)."""
    if n < 2:
        raise ValueError("symmetry check needs n >= 2")
    results = count_pairs(n, all_pairs(n))
    violations = []
    for (k, s), res in results.items():
        mk, ms = n - 1 - s, n - 1 - k
        if (k, s) <= (mk, ms):
            mirror = results[(mk, ms)]
            if res.count != mirror.count:
                violations.append(((k, s), (mk, ms), res.count, mirror.count))
    return violations
