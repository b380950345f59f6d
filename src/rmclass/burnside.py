"""Exact class counting by averaging fixed points over cells of the group.

For each cell (one representative g, exact size) the number of coefficient
vectors fixed by g is 2^(d - rank(tau_g xor I)); the class count is the
size-weighted sum over cells divided by |AGL(n,2)|. The rank is taken
on the core of g only: its free coordinates and its odd-order blocks of
order prime to the rest's are split off and enter through their level
counts (_peel_run, _peel_plan).
The canonical cells are the rational cells of conjclasses, unions of the
conjugacy classes of the generators of one cyclic subgroup. Everything is
exact integer arithmetic; a nonzero remainder in the final division means
the cell decomposition is broken and raises instead of rounding.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from itertools import groupby

from .anf import check_params
from .conjclasses import (
    CellDecompositionError,
    exhaustive_cells,
    import_cells,
    rational_runs,
)
from .gf2 import BitMatrix, BitVector, Value
from .group import AffineElement, group_orders, order_and_fixes
from .linrep import fixed_space_log2, monomial_images, translated_images

PROVIDERS = ("exhaustive", "canonical", "import")


def _serve(fd: int, fn, args) -> None:
    """The body of a forked worker: writes pickle.dumps((True, fn(*args)))
    or, if fn raised, (False, the exception) to the pipe fd and leaves by
    os._exit, so that it never returns into the caller's code nor flushes
    the stdio buffers it inherited. A result or exception that cannot be
    pickled or written leaves with status 1 and no result."""
    code = 1
    try:
        import pickle
        try:
            data = pickle.dumps((True, fn(*args)))
        except Exception as exc:
            data = pickle.dumps((False, exc))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


class ForkPool:
    """A pool of forked processes for both rounds of count_pairs, with the
    interface of concurrent.futures.ProcessPoolExecutor that it uses: the
    max_workers constructor, the context manager and an ordered map.

    map runs its first call in the calling process and forks one child
    per other call, each returning its result through a pipe; the caller
    reads each pipe to EOF and reaps every child before map returns or
    raises. A child's exception is raised again in the caller; a child
    that ends without a result, or an OSError from os.pipe or os.fork,
    raises RuntimeError naming the worker, an internal failure rather
    than bad input. If anything raises,
    the children still running are killed first. Children are forked, so
    they inherit the arguments and module state without pickling, and
    only the results are pickled. Fork only where no other thread runs:
    _workers checks that (_can_fork)."""

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables) -> list:
        import pickle  # only a pooled count pays for it

        first, *rest = zip(*iterables)
        pids, fds = [], []
        try:
            for i, args in enumerate(rest, 1):
                try:
                    fd, w = os.pipe()
                    fds.append(fd)
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _serve(w, fn, args)
                    finally:
                        os.close(w)
                except OSError as exc:
                    raise RuntimeError(f"pool worker {i} could not start: "
                                       f"{exc}") from exc
                pids.append(pid)
            results = [fn(*first)]
            for i, fd in enumerate(fds):
                with open(fd, "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pids[i], 0)[1]
                pids[i] = None
                if not data:
                    raise RuntimeError(f"pool worker {i + 1} ended without "
                                       f"a result (wait status {status})")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.append(value)
        except BaseException:
            import signal
            for pid in pids:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for fd in fds:
                os.close(fd)
            for pid in pids:
                if pid is not None:
                    os.waitpid(pid, 0)
        return results


# the name _pooled looks the pool up by, at call time, so that a test or
# the benchmark can put another executor in its place
ProcessPoolExecutor = ForkPool


def _can_fork() -> bool:
    """True where os.fork exists and no thread but this one runs: a
    child forked from a process with other threads may deadlock on a
    lock one of them held."""
    if not hasattr(os, "fork"):
        return False
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


class InexactDivisionError(ArithmeticError):
    """The Burnside sum is not a positive multiple of the group order."""


class CountResult(Value):
    """One (n, s, k), its class count, its cells and the seconds of the
    count_pairs call that made it, cell build included."""

    __slots__ = ("n", "s", "k", "count", "cells", "elapsed")


def fix_count(g: AffineElement, s: int, k: int) -> int:
    """Number of coefficient vectors fixed by g: 2^(d - rank(tau xor I))."""
    check_params(g.n, s, k)
    return 1 << fixed_space_log2(monomial_images(g, s, k), g.n, [(k, s)])[0]


def _runs(cells) -> list[tuple[AffineElement, list]]:
    """A cell list as runs, one per block of consecutive cells with equal
    linear parts: its first cell's element and (size, b bits) per cell."""
    runs = [list(run) for _, run in groupby(cells, key=lambda c: c.rep.a)]
    return [(r[0].rep, [(c.size, c.rep.b.bits) for c in r]) for r in runs]


def resolve_cells(n: int, provider: str = "canonical", *,
                  file=None) -> list[tuple[AffineElement, list]]:
    """Map a provider tag to the runs of its cells for n: rational_runs,
    or the provider's validated cell list grouped (_runs)."""
    if file is not None and provider != "import":
        raise ValueError(f"cell file {file} is read only by provider "
                         f"'import', not {provider!r}")
    if provider == "exhaustive":
        return _runs(exhaustive_cells(n))
    if provider == "canonical":
        return rational_runs(n)
    if provider == "import":
        cells = import_cells(file)
        if cells[0].rep.n != n:
            raise ValueError(
                f"cell file is for n={cells[0].rep.n}, requested n={n}")
        return _runs(cells)
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


def _restrict(rows: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """The rows of the matrix with these rows restricted to the
    coordinates set in the mask keep, rows and columns alike."""
    return tuple(_squeeze(row, keep) for i, row in enumerate(rows)
                 if keep >> i & 1)


def _zero_coset(rows: tuple[int, ...]) -> AffineElement:
    """(A, 0) for the square matrix A with these rows."""
    m = len(rows)
    return AffineElement(m, BitMatrix(m, m, rows), BitVector(m, 0))


def _peel_run(n: int, rows: tuple[int, ...], cells):
    """The one statement of the peel: a run of cells (size, b) of one linear
    part A, given by its rows, split as A = I_F + A_1 + A_2 on coordinates
    F, V1 and K taken from A itself. Its blocks are the connected components
    of its coordinate graph (i ~ j when A_ij = 1 or A_ji = 1).
    - F is the free coordinates, the blocks of one coordinate, whose
      row and column of A are e_i. A cell (A, b) with no bit of b in F
      leaves every x_i, i in F, alone and peels all of F. A cell whose b
      touches F is conjugate to (A, b' + e_y) for any y in F, by a map
      that is linear on F, fixes the rest and commutes with A: it keeps
      y as its affine coordinate, put on top, and peels the other
      |F| - 1, however many bits of F b has.
    - The blocks are joined into components while their orders share a
      prime, 2 included (group.order_and_fixes, one cached call per
      block). A component of odd order none of whose blocks fixes a
      nonzero vector is a part, and V1 is the union of the parts; a free
      coordinate, of order 1 and fixing its vector, is never in one. A xor
      I is invertible on V1, so a translation conjugates b's part there
      away, and g1 = (A_1, 0) has odd order prime to that of the rest
      g2; <g> = <g1> x <g2>, so g's fixed vectors are the tensors of
      g1's and g2's, level by level (_peel_plan). The same holds within
      g1 between its parts, whose orders are pairwise prime.
    - K, the rest, is the core. A rep with no block structure is one
      block and all core.
    Returns plain data, cheap to pickle: the rows of A_2 on m = |K|
    variables, the rows of each part A_1 of g1 by increasing coordinate
    mask, r = |F|, and (size, b) per cell in order, b its translation on
    K with bit m set when the cell keeps y."""
    blocks = []  # coordinate masks, merged row by row
    for i, row in enumerate(rows):
        block = row | 1 << i
        for other in [b for b in blocks if b & block]:
            blocks.remove(other)
            block |= other
        blocks.append(block)
    free = sum(b for b in blocks if not b & b - 1)
    comps = []  # (mask, order, some block fixes a vector), orders coprime
    for mask in blocks:
        order, fixes = order_and_fixes(_restrict(rows, mask))
        for other in [c for c in comps if math.gcd(c[1], order) > 1]:
            comps.remove(other)
            mask, order = mask | other[0], math.lcm(order, other[1])
            fixes = fixes or other[2]
        comps.append((mask, order, fixes))
    parts = sorted(mask for mask, order, fixes in comps
                   if order & 1 and not fixes)
    core = (1 << n) - 1 ^ free ^ sum(parts)
    m = core.bit_count()
    peeled = [(size, _squeeze(b, core) | bool(b & free) << m)
              for size, b in cells]
    return (_restrict(rows, core),
            tuple(_restrict(rows, mask) for mask in parts),
            free.bit_count(), peeled)


@functools.lru_cache(maxsize=256)
def _peel_plan(plans: tuple[tuple[int, int, tuple[tuple[int, int], ...]],
                            ...]):
    """The windows one core element is eliminated on, for the cells that
    reduce to it at one or more n, as (windows, their smallest k, their
    largest s, terms per plan). plans holds one (n, r, pairs) per n: the
    cells at n peel r coordinates, free and split, to the element's
    v = n - r variables. With N_l the dimension of the fixed space of
    the peeled part on its degree-l functions modulo those of lower
    degree (C(r, l) when all r are free), a level-l function times the
    core's functions carries the window shifted by l, so
        fixdim_n(k, s) = sum_l N_l fixdim_v(max(k - l, -1), min(s - l, v)),
    and the terms of a pair are its (l, window index) for the nonempty
    shifted windows, l in (k - v, s]; an empty one adds 0. N is not part
    of the plan, so that one cached plan serves every peeled part of the
    same size. The windows are the union over the plans, in order of
    first use, so that one elimination serves every n; with one plan and
    r = 0 they are its pairs."""
    windows: dict[tuple[int, int], int] = {}
    terms = []
    for n, r, pairs in plans:
        v = n - r
        rows = []
        for k, s in pairs:
            row = []
            for l in range(r + 1):
                w = (max(k - l, -1), min(s - l, v))
                if w[0] < w[1]:
                    row.append((l, windows.setdefault(w, len(windows))))
            rows.append(tuple(row))
        terms.append(tuple(rows))
    return (tuple(windows), min(k for k, _ in windows),
            max(s for _, s in windows), tuple(terms))


def _level_counts(r: int, parts) -> tuple[int, ...]:
    """N for r free coordinates and split parts with the level counts
    parts: the levels of a product are the sums of its factors' levels,
    so N is the convolution of the parts' counts and the binomials
    C(r, j)."""
    out = tuple(math.comb(r, j) for j in range(r + 1))
    for counts in parts:
        conv = [0] * (len(out) + len(counts) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(counts):
                conv[i + j] += x * y
        out = tuple(conv)
    return out


def _part_levels(part: AffineElement, lo: int, hi: int) -> tuple[int, ...]:
    """The level counts N_l = fixdim(l - 1, l) of a split part on u
    variables for l in [lo, hi], 0 at the other levels of 0..u. Duality
    holds per element, fixdim(k, s) = fixdim(u - 1 - s, u - 1 - k), so
    N_l = N_(u-l): one fixed_space_log2 call eliminates only the levels
    min(l, u - l), with its images pruned to them."""
    u = part.n
    half = sorted({min(l, u - l) for l in range(lo, hi + 1)})
    images = monomial_images(part, half[-1], half[0] - 1)
    fixdims = dict(zip(half, fixed_space_log2(
        images, u, [(l - 1, l) for l in half])))
    return tuple(fixdims[min(l, u - l)] if lo <= l <= hi else 0
                 for l in range(u + 1))


def _peel_groups(runs_by_n: dict[int, list],
                 wanted_by_n: dict[int, tuple[tuple[int, int], ...]]):
    """The peeled runs of every n (_peel_run) grouped by their exact core
    zero coset (A_2, 0), keyed by the rows of A_2: a list of
    (zero, {n: [(size, b, N), ...]}) in order of first appearance, where
    b is the cell's core translation, with a kept y as bit m, and N its
    level counts (_peel_plan). Runs with equal keys share a group,
    whatever their n, their split part or their place in the list, and
    one AffineElement is built per distinct core and part.

    Each distinct part of a split part g1 makes one fixed_space_log2
    call (_part_levels) for only the levels l that some pair of some n
    reads: l in (k - (n - u), s] for a part on u variables, since the
    rest of the cell's peeled coordinates and its core fill the other
    n - u. N is those lists convolved with each other and with the
    binomials of the cell's free coordinates (_level_counts)."""
    groups: dict[tuple[int, ...], tuple] = {}
    hulls: dict[tuple[int, ...], list[int]] = {}  # part's rows -> [lo, hi]
    for n, runs in runs_by_n.items():
        k0 = min(k for k, _ in wanted_by_n[n])
        top = max(s for _, s in wanted_by_n[n])
        for core, parts, r, peeled in runs:
            for rows in parts:
                lo, hi = max(k0 + 1 - n + len(rows), 0), min(top, len(rows))
                hull = hulls.setdefault(rows, [lo, hi])
                hull[0], hull[1] = min(hull[0], lo), max(hull[1], hi)
            if core not in groups:
                groups[core] = (_zero_coset(core), {})
            # (free coordinates peeled, the parts' rows) for N, by kept
            shapes = ((r, parts), (r - 1, parts))
            groups[core][1].setdefault(n, []).extend(
                (size, b, shapes[b >> len(core)]) for size, b in peeled)
    counts = {rows: _part_levels(_zero_coset(rows), lo, hi)
              for rows, (lo, hi) in hulls.items()}
    levels = {}  # (free coordinates, the parts' rows) -> N, one tuple each
    for _, by_n in groups.values():
        for cells in by_n.values():
            for i, (size, b, (r, key)) in enumerate(cells):
                if (r, key) not in levels:
                    levels[r, key] = _level_counts(
                        r, [counts[rows] for rows in key])
                cells[i] = (size, b, levels[r, key])
    return list(groups.values())


def _pair_partial_sums(wanted_by_n: dict[int, tuple[tuple[int, int], ...]],
                       groups) -> dict[int, list[int]]:
    """Size-weighted fixed-point sums of a slice of groups (_peel_groups),
    one list per n of wanted_by_n, one entry per pair of that n.

    A group's images are built once, for its core zero coset, on the
    union of the windows that the full peel leaves at each of its n. Each
    distinct core element (kept, b) of the group, at any n, makes one
    fixed_space_log2 call on the union of the windows its cells need
    (_peel_plan), and derives its images from the group's
    (translated_images) when b != 0; a kept y is bit m of b. Such an
    element peels one coordinate fewer, which moves its windows up at
    most a degree, so the build for the full peel serves it too. Each
    cell's n-variable fixdims are convolved from that one list with the
    cell's level counts N."""
    sums = {n: [0] * len(pairs) for n, pairs in wanted_by_n.items()}
    for zero, by_n in groups:
        m = zero.n
        _, k0, top, _ = _peel_plan(tuple((n, n - m, wanted_by_n[n])
                                         for n in by_n))
        base = monomial_images(zero, top, k0)
        # core b, with a kept y as bit m -> {n: {N: summed cell sizes}}
        elements: dict[int, dict[int, dict[tuple, int]]] = {}
        for n, cells in by_n.items():
            for size, b, levels in cells:
                sizes = elements.setdefault(b, {}).setdefault(n, {})
                sizes[levels] = sizes.get(levels, 0) + size
        for b, sizes_by_n in elements.items():
            v = m + (b >> m)  # the element's variables
            windows, k, s, terms = _peel_plan(tuple(
                (n, n - v, wanted_by_n[n]) for n in sizes_by_n))
            images = translated_images(base, m, b, s, k) if b else base
            fixdims = fixed_space_log2(images, v, windows)
            for (n, sizes), rows in zip(sizes_by_n.items(), terms):
                acc = sums[n]
                for levels, size in sizes.items():
                    for i, row in enumerate(rows):
                        fixdim = 0
                        for l, w in row:
                            fixdim += levels[l] * fixdims[w]
                        acc[i] += size << fixdim
    return sums


def _peeled_share(share, provider: str, file, cells) -> dict[int, tuple]:
    """The first round of a count, for the n of one share: each n's runs
    (resolve_cells, or _runs of cells), checked and peeled (_peel_run), as
    {n: (number of cells, [peeled run, ...])}, plain data that a pool
    worker returns pickled. A run is an element (A, b) and (size, b bits)
    per cell of linear part A; the sizes of all runs sum to |AGL(n,2)|."""
    out = {}
    for n in share:
        runs = (resolve_cells(n, provider, file=file) if cells is None
                else _runs(cells))
        for g, _ in runs:
            if g.n != n:
                raise CellDecompositionError(
                    f"a cell representative is for n={g.n}, not n={n}")
        total = sum(size for _, run in runs for size, _ in run)
        order = group_orders(n)[1]
        if total != order:
            raise CellDecompositionError(
                f"cell sizes sum to {total}, not |AGL({n},2)| = {order}")
        out[n] = (sum(len(run) for _, run in runs),
                  [_peel_run(n, g.a.row_bits, run) for g, run in runs])
    return out


def _deal(ns, workers: int) -> list[list[int]]:
    """The n of a count in shares for workers processes: largest n first,
    each to the share with the smallest sum of 2^n so far, the lower on a
    tie, since the cells about double with n. Each share is increasing,
    and none is empty while workers <= len(ns)."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for n in sorted(ns, reverse=True):
        w = loads.index(min(loads))
        shares[w].insert(0, n)
        loads[w] += 1 << n
    return shares


def _workers(threads: int, tasks: int) -> int:
    """Never more processes than tasks or CPUs, the caller included, and
    none forked where fork is missing or unsafe."""
    workers = min(threads, tasks, os.cpu_count() or 1)
    return workers if workers == 1 or _can_fork() else 1


def _pooled(fn, *iterables) -> list:
    """fn over the shares, one per entry of the iterables, in order: in
    the caller alone for one share, else through a pool of one worker per
    share."""
    if len(iterables[0]) == 1:
        return [fn(*args) for args in zip(*iterables)]
    with ProcessPoolExecutor(max_workers=len(iterables[0])) as pool:
        return list(pool.map(fn, *iterables))


def count_pairs(n: int, pairs, provider: str = "canonical", *,
                threads: int = 1, file=None,
                cells=None) -> dict[tuple, CountResult]:
    """Counts for several windows in one sweep, sharing the cell lists,
    the images and the eliminations. Each entry of pairs is a (k, s) for
    this n or a triple (m, k, s) for any 1 <= m <= n; the result maps each
    entry, as a tuple, to its CountResult, which carries its own n and
    cell count. Every result carries the elapsed time of the whole count,
    over all n, which starts before the cells are built.

    A count runs in two rounds. In the first, the runs of every n are
    built, checked and peeled (_peeled_share); in the second, the groups
    are swept (_pair_partial_sums). Between them the caller groups the
    peeled runs by their core zero coset and eliminates each distinct
    split part once, on the levels they read (_peel_groups); each
    distinct core element is eliminated once in the sweep, over every
    window its cells need at any n. With threads > 1 each round goes to
    at most min(threads, its tasks, CPUs) worker processes, the caller
    included (ForkPool): the n dealt by _deal, then the groups, whole,
    dealt in turn. One worker where os.fork is missing or another thread
    runs; a round with one worker forks nothing.

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
    start = time.perf_counter()
    shares = _deal(wanted_by_n, _workers(threads, len(wanted_by_n)))
    peeled = {}
    for share in _pooled(_peeled_share, shares, [provider] * len(shares),
                         [file] * len(shares), [cells] * len(shares)):
        peeled.update(share)
    groups = _peel_groups({m: peeled[m][1] for m in wanted_by_n},
                          wanted_by_n)
    workers = _workers(threads, len(groups))
    # whole groups, so that each group's images are built in one slice
    partials = _pooled(_pair_partial_sums, [wanted_by_n] * workers,
                       [groups[w::workers] for w in range(workers)])
    elapsed = time.perf_counter() - start
    results = {}
    for m, w in wanted_by_n.items():
        order = group_orders(m)[1]
        for i, (k, s) in enumerate(w):
            acc = sum(p[m][i] for p in partials)
            q, rem = divmod(acc, order)
            if rem or q < 1:
                raise InexactDivisionError(
                    f"n={m} s={s} k={k}: Burnside sum {acc} leaves "
                    f"remainder {rem} mod |AGL({m},2)| and quotient {q}")
            results[m, k, s] = CountResult(m, s, k, q, peeled[m][0],
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
