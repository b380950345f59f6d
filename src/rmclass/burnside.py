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
from itertools import groupby

from .anf import check_params
from .conjclasses import (
    CellDecompositionError,
    ConjCell,
    exhaustive_cells,
    import_cells,
    rational_cells,
)
from .gf2 import BitMatrix, BitVector, Value
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


class CountResult(Value):
    """One (n, s, k), its class count, its cells and its sweep's seconds."""

    __slots__ = ("n", "s", "k", "count", "cells", "elapsed")


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
def _peel_plan(plans: tuple[tuple[int, int, tuple[tuple[int, int], ...]],
                            ...]):
    """The windows one reduced element is eliminated on, for the cells
    that reduce to it at one or more n, as (windows, their smallest k,
    their largest s, terms per plan). plans holds one (n, r, pairs) per n:
    the cells at n peel r free coordinates to the element's m = n - r
    variables. A y-monomial of degree j in the r free variables carries
    the window shifted by j, so
        fixdim_n(k, s) = sum_j C(r, j) fixdim_m(max(k - j, -1), min(s - j, m)),
    and the terms of a pair are its (C(r, j), window index) for the
    nonempty shifted windows; an empty one adds 0. The windows are the
    union over the plans, in order of first use, so that one elimination
    serves every n; with one plan and r = 0 they are its pairs."""
    windows: dict[tuple[int, int], int] = {}
    terms = []
    for n, r, pairs in plans:
        m = n - r
        rows = []
        for k, s in pairs:
            row = []
            for j in range(r + 1):
                w = (max(k - j, -1), min(s - j, m))
                if w[0] < w[1]:
                    row.append((math.comb(r, j),
                                windows.setdefault(w, len(windows))))
            rows.append(tuple(row))
        terms.append(tuple(rows))
    return (tuple(windows), min(k for k, _ in windows),
            max(s for _, s in windows), tuple(terms))


def _peel_groups(cells_by_n: dict[int, list[ConjCell]]):
    """The cells of every n, peeled run by run (_peel_run) and grouped by
    their exact reduced zero coset (A_K, 0), keyed by m and the rows of
    A_K: a list of (zero, {n: [(size, kept, b), ...]}) in order of first
    appearance. Runs with equal keys share a group, whatever their n or
    their place in the list."""
    groups: dict[tuple, tuple] = {}
    for n, cells in cells_by_n.items():
        for _, run in groupby(cells, key=lambda c: c.rep.a):
            zero, _, peeled = _peel_run(n, list(run))
            _, by_n = groups.setdefault((zero.n, zero.a.row_bits),
                                        (zero, {}))
            by_n.setdefault(n, []).extend(peeled)
    return list(groups.values())


def _pair_partial_sums(wanted_by_n: dict[int, tuple[tuple[int, int], ...]],
                       groups) -> dict[int, list[int]]:
    """Size-weighted fixed-point sums of a slice of groups (_peel_groups),
    one list per n of wanted_by_n, one entry per pair of that n.

    A group's images are built once, for its reduced zero coset, on the
    union of the windows that the full peel leaves at each of its n. Each
    distinct reduced element (kept, b) of the group, at any n, makes one
    fixed_space_log2 call on the union of the windows its cells need
    (_peel_plan), and derives its images from the group's
    (translated_images) when b != 0; a kept y is bit m of b. Such an
    element peels one coordinate fewer, which moves its windows up at
    most a degree, so the build for the full peel serves it too. Each
    cell's n-variable fixdims are convolved from that one list."""
    sums = {n: [0] * len(pairs) for n, pairs in wanted_by_n.items()}
    for zero, by_n in groups:
        m = zero.n
        _, k0, top, _ = _peel_plan(tuple((n, n - m, wanted_by_n[n])
                                         for n in by_n))
        base = monomial_images(zero, top, k0)
        # reduced b, with a kept y as bit m -> {n: summed cell sizes}
        elements: dict[int, dict[int, int]] = {}
        for n, peeled in by_n.items():
            for size, _, b in peeled:
                sizes = elements.setdefault(b, {})
                sizes[n] = sizes.get(n, 0) + size
        for b, sizes in elements.items():
            v = m + (b >> m)  # the element's variables
            windows, k, s, terms = _peel_plan(tuple(
                (n, n - v, wanted_by_n[n]) for n in sizes))
            images = translated_images(base, m, b, s, k) if b else base
            fixdims = fixed_space_log2(images, v, windows)
            for (n, size), rows in zip(sizes.items(), terms):
                acc = sums[n]
                for i, row in enumerate(rows):
                    fixdim = 0
                    for c, w in row:
                        fixdim += c * fixdims[w]
                    acc[i] += size << fixdim
    return sums


def _checked_cells(n: int, provider: str, file, cells) -> list[ConjCell]:
    """cells, or else the provider's cells for n, checked to be for n and
    to cover AGL(n,2) by their sizes."""
    if cells is None:
        cells = resolve_cells(n, provider, file=file)
    for c in cells:
        if c.rep.n != n:
            raise CellDecompositionError(
                f"a cell representative is for n={c.rep.n}, not n={n}")
    total_size = sum(c.size for c in cells)
    order = group_orders(n)[1]
    if total_size != order:
        raise CellDecompositionError(
            f"cell sizes sum to {total_size}, not |AGL({n},2)| = {order}")
    return cells


def count_pairs(n: int, pairs, provider: str = "canonical", *,
                threads: int = 1, file=None,
                cells=None) -> dict[tuple, CountResult]:
    """Counts for several windows in one sweep, sharing the cell lists,
    the images and the eliminations. Each entry of pairs is a (k, s) for
    this n or a triple (m, k, s) for any 1 <= m <= n; the result maps each
    entry, as a tuple, to its CountResult, which carries its own n and
    cell count. Every result carries the elapsed time of the whole sweep,
    over all n, which starts once every n's cells are built and checked.

    The cells of every n are peeled and grouped by their reduced zero
    coset (_peel_groups), and each distinct reduced element is eliminated
    once, over every window its cells need at any n, as
    _pair_partial_sums describes. With threads > 1 the groups go to at
    most min(threads, groups, CPUs) worker processes, whole, dealt in
    turn. A serial count never imports the process pool.

    Given cells, or a cell file (provider import), hold one n, this n, so
    a triple for another n is a usage error. Given cells must partition
    AGL(n,2), and every member of a cell must fix the same number of
    vectors as its representative in every window, as conjugate elements
    and generators of one cyclic subgroup do. Only the size sum and the
    representatives' n are checked here."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    # pairs loaded from JSON are lists, which do not hash
    entries = [tuple(p) for p in pairs]
    if not entries:
        return {}
    windows = [p if len(p) == 3 else (n, *p) for p in entries]
    for m, k, s in windows:
        if not 1 <= m <= n:
            raise ValueError(f"window n={m} is outside 1..{n}")
        check_params(m, s, k)
    if len(set(windows)) != len(windows):
        raise ValueError("duplicate windows")
    # the n in increasing order, each with its pairs in the order given
    wanted_by_n = {m: tuple((k, s) for n2, k, s in windows if n2 == m)
                   for m in sorted({m for m, _, _ in windows})}
    other = set(wanted_by_n) - {n}
    if other and (cells is not None or provider == "import"):
        raise ValueError(f"the cells given or read from a file hold n={n} "
                         f"only, not n={min(other)}")
    cells_by_n = {m: _checked_cells(m, provider, file, cells)
                  for m in wanted_by_n}
    ncells = {m: len(listed) for m, listed in cells_by_n.items()}
    start = time.perf_counter()
    groups = _peel_groups(cells_by_n)
    # the groups hold all the sweep reads of the cells: drop the lists, so
    # that the sweep holds one copy of them
    del cells_by_n
    # never more processes than groups or CPUs
    workers = min(threads, len(groups), os.cpu_count() or 1)
    if workers > 1:
        # whole groups, so that each group's images are built in one
        # slice only
        slices = [groups[w::workers] for w in range(workers)]
        # a value patched onto the module attribute wins over the import
        executor = (globals().get("ProcessPoolExecutor")
                    or __getattr__("ProcessPoolExecutor"))
        with executor(max_workers=workers) as pool:
            partials = list(pool.map(_pair_partial_sums,
                                     [wanted_by_n] * workers, slices))
        sums = {m: [sum(p[m][i] for p in partials) for i in range(len(w))]
                for m, w in wanted_by_n.items()}
    else:
        sums = _pair_partial_sums(wanted_by_n, groups)
    elapsed = time.perf_counter() - start
    results = {}
    for m, w in wanted_by_n.items():
        order = group_orders(m)[1]
        for (k, s), acc in zip(w, sums[m]):
            q, rem = divmod(acc, order)
            if rem or q < 1:
                raise InexactDivisionError(
                    f"n={m} s={s} k={k}: Burnside sum {acc} leaves "
                    f"remainder {rem} mod |AGL({m},2)| and quotient {q}")
            results[m, k, s] = CountResult(m, s, k, q, ncells[m],
                                           elapsed)
    return {p: results[w] for p, w in zip(entries, windows)}


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
