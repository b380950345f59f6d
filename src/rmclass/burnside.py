"""Exact class counting by averaging fixed points over cells of the group.

For each cell (one representative g, exact size) the number of coefficient
vectors fixed by g is 2^(d - rank(tau_g xor I)); the class count is the
size-weighted sum over cells divided by |AGL(n,2)|. The canonical cells are
the rational cells of conjclasses, unions of the conjugacy classes of the
generators of one cyclic subgroup. Everything is exact integer arithmetic;
a nonzero remainder in the final division means the cell decomposition is
broken and raises instead of rounding.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
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
from .group import AffineElement, group_orders
from .linrep import fixed_space_log2, monomial_images, translated_images

PROVIDERS = ("exhaustive", "canonical", "import")


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


def _pair_partial_sums(n: int, pairs: tuple[tuple[int, int], ...],
                       cells: list[ConjCell]) -> list[int]:
    """Size-weighted fixed-point sums of a slice of cells, one per pair.
    Each cell makes one fixed_space_log2 call, whose single elimination
    serves every window (k, s]. A cell (A, e_start) whose A equals that of
    the last b = 0 cell before it derives its images from that cell's
    (translated_images) instead of building them."""
    max_s = max(s for _, s in pairs)
    min_k = min(k for k, _ in pairs)
    sums = [0] * len(pairs)
    base_a = base = None
    for cell in cells:
        g = cell.rep
        b = g.b.bits
        if b and not b & (b - 1) and g.a == base_a:
            images = translated_images(base, n, b, max_s, min_k)
        else:
            images = monomial_images(g, max_s, min_k)
            if not b:
                base_a, base = g.a, images
        for i, fixdim in enumerate(fixed_space_log2(images, n, pairs)):
            sums[i] += cell.size << fixdim
    return sums


def count_pairs(n: int, pairs, provider: str = "canonical", *,
                threads: int = 1, file=None,
                cells=None) -> dict[tuple[int, int], CountResult]:
    """Counts for several (k, s) pairs in one sweep, sharing the cell list
    and the per-cell monomial images. Returns {(k, s): CountResult}; each
    result carries the elapsed time of the whole sweep, which starts once
    the cells are built and checked.

    Images are built once per run of cells with equal linear parts: a
    cell (A, e_start) derives them from the last (A, 0) cell before it.
    With threads > 1 the runs are dealt whole to at most
    min(threads, runs, CPUs) worker processes, each run to the worker with
    the fewest cells so far.

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
        # whole runs, so that every fiber cell finds its zero coset's
        # images in its own slice; each run goes to the slice with the
        # fewest cells so far
        slices = [[] for _ in range(workers)]
        for run in runs:
            min(slices, key=len).extend(run)
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
