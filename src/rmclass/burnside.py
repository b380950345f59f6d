"""Exact class counting by averaging fixed points over conjugacy cells.

For each cell (one representative g, exact size) the number of coefficient
vectors fixed by g is 2^(d - rank(tau_g xor I)); the class count is the
size-weighted sum over cells divided by |AGL(n,2)|. Everything is exact
integer arithmetic; a nonzero remainder in the final division means the
cell decomposition is broken and raises instead of rounding.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .anf import check_params
from .conjclasses import (
    CellDecompositionError,
    ConjCell,
    affine_cells,
    exhaustive_cells,
    import_cells,
)
from .group import AffineElement, group_orders
from .linrep import fixed_space_log2, monomial_images

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


def resolve_cells(n: int | None, provider: str = "canonical", *,
                  file=None) -> list[ConjCell]:
    """Map a provider tag to a validated cell list. n may be None for the
    import provider only: the file's own n is then accepted."""
    if n is None and provider != "import":
        raise ValueError("only the import provider accepts n=None")
    if provider == "exhaustive":
        return exhaustive_cells(n)
    if provider == "canonical":
        return affine_cells(n)
    if provider == "import":
        if file is None:
            raise ValueError("the import provider requires a cell file")
        cells = import_cells(file)
        if n is not None and cells[0].rep.n != n:
            raise ValueError(
                f"cell file is for n={cells[0].rep.n}, requested n={n}")
        return cells
    raise ValueError(f"unknown provider {provider!r}; expected {PROVIDERS}")


def _pair_partial_sums(n: int, pairs: tuple[tuple[int, int], ...],
                       cells: list[ConjCell]) -> list[int]:
    """Size-weighted fixed-point sums of a slice of cells, one per pair.
    Each cell makes one fixed_space_log2 call, whose single elimination
    serves every window (k, s]."""
    max_s = max(s for _, s in pairs)
    min_k = min(k for k, _ in pairs)
    sums = [0] * len(pairs)
    for cell in cells:
        images = monomial_images(cell.rep, max_s, min_k)
        for i, fixdim in enumerate(fixed_space_log2(images, n, pairs)):
            sums[i] += cell.size << fixdim
    return sums


def count_pairs(n: int, pairs, provider: str = "canonical", *,
                threads: int = 1, file=None,
                cells=None) -> dict[tuple[int, int], CountResult]:
    """Counts for several (k, s) pairs in one sweep, sharing the cell list
    and the per-cell monomial images. Returns {(k, s): CountResult}; each
    result carries the elapsed time of the whole batch."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    pairs = tuple(pairs)
    if not pairs:
        return {}
    for k, s in pairs:
        check_params(n, s, k)
    if len(set(pairs)) != len(pairs):
        raise ValueError("duplicate (k, s) pairs")
    start = time.perf_counter()
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
    # never more processes than cells or CPUs
    workers = min(threads, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # round-robin slices rather than contiguous ones: neighboring cells
        # have correlated cost, this balances them
        slices = [cells[w::workers] for w in range(workers)]
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
