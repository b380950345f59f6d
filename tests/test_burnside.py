import collections
import errno
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import (
    FakePool,
    SliceError,
    all_elements,
    assert_reaped,
    find_inexact_swap,
    in_workers,
    lift_max_n,
    make_example,
)
from helpers_oracle import (
    FROZEN_COUNTS,
    brute_class_count,
    invariant_fixdims,
    orbit_count,
    point_fixdims,
    valid_pairs,
)
import rmclass
from rmclass import burnside, conjclasses, linrep
from rmclass.burnside import (
    InexactDivisionError,
    all_pairs,
    count,
    count_pairs,
    fix_count,
    resolve_cells,
    symmetry_check,
)
from rmclass.conjclasses import (
    CellDecompositionError,
    ConjCell,
    affine_cells,
    exhaustive_cells,
    export_cells,
    gl_classes,
    import_cells,
    rational_cells,
)
from rmclass.cli import load_oracle
from rmclass.gf2 import BitMatrix, BitVector, mat_mul, mat_vec, rank
from rmclass.gf2 import identity as gf2_identity
from rmclass.group import (
    AffineElement,
    conjugate,
    group_orders,
    identity,
    random_element,
    to_permutation,
)
from rmclass.anf import space_dimension
from rmclass.linrep import (
    fixed_space_log2,
    monomial_images,
    tau_matrix,
)


def test_fix_count_identity():
    for n, s, k in [(3, 3, -1), (3, 2, 0), (4, 4, 1), (5, 3, 2)]:
        assert fix_count(identity(n), s, k) == 1 << space_dimension(n, s, k)


def test_fix_count_example():
    g = make_example()
    assert fix_count(g, 3, -1) == 64
    # cross-check: count fixed coefficient vectors one by one
    m = tau_matrix(g, 3, -1).matrix
    fixed = sum(1 for bits in range(256)
                if mat_vec(m, BitVector(8, bits)).bits == bits)
    assert fixed == 64


def test_fix_count_windowed_example():
    g = make_example()
    for s, k in [(3, 0), (3, 1), (2, -1), (1, -1)]:
        m = tau_matrix(g, s, k).matrix
        d = space_dimension(3, s, k)
        fixed = sum(1 for bits in range(1 << d)
                    if mat_vec(m, BitVector(d, bits)).bits == bits)
        assert fix_count(g, s, k) == fixed


def test_count_result_fields():
    r = count(3, 3, 1)
    assert (r.n, r.s, r.k) == (3, 3, 1)
    assert r.count == 3
    assert r.cells == len(rational_cells(3))
    assert r.elapsed >= 0.0


def test_count_matches_brute_force_n_le_2():
    for n in (1, 2):
        for k, s in valid_pairs(n):
            live = brute_class_count(n, s, k)
            assert live == FROZEN_COUNTS[n][(k, s)]
            assert count(n, s, k).count == live


def test_count_matches_frozen_n3():
    for (k, s), want in FROZEN_COUNTS[3].items():
        assert count(3, s, k).count == want


def test_all_pairs():
    assert set(all_pairs(3)) == set(valid_pairs(3))
    assert len(all_pairs(7)) == 36
    assert all(-1 <= k < s <= 4 for k, s in all_pairs(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_provider_independence(n, tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(n), path)
    for k, s in all_pairs(n):
        a = count(n, s, k, "canonical").count
        b = count(n, s, k, "exhaustive").count
        c = count(n, s, k, "import", file=path).count
        assert a == b == c


def test_count_pairs_matches_single_counts():
    results = count_pairs(3, all_pairs(3))
    assert set(results) == set(all_pairs(3))
    for (k, s), r in results.items():
        assert r.count == count(3, s, k).count
        assert (r.n, r.s, r.k) == (3, s, k)


def test_count_pairs_takes_pairs_as_lists():
    # pairs loaded from JSON are lists; the results are keyed by tuples,
    # a (k, s) for n and an (m, k, s) for any m <= n, each as given
    pairs = all_pairs(4)
    as_lists = count_pairs(4, [list(p) for p in pairs])
    assert {p: r.count for p, r in as_lists.items()} == {
        p: r.count for p, r in count_pairs(4, pairs).items()}
    mixed = count_pairs(4, [[1, 3], [3, 1, 3], (2, 0, 2), (4, 0, 2)])
    assert {p: (r.n, r.k, r.s, r.count) for p, r in mixed.items()} == {
        (1, 3): (4, 1, 3, 5), (3, 1, 3): (3, 1, 3, 3),
        (2, 0, 2): (2, 0, 2, 3), (4, 0, 2): (4, 0, 2, count(4, 2, 0).count)}


@pytest.mark.parametrize("n", range(1, 9))
def test_rational_counts_equal_class_counts(n):
    # the canonical path sums over rational cells; summed over the exact
    # conjugacy classes instead, every count is the same
    pairs = all_pairs(n)
    merged = count_pairs(n, pairs)
    unmerged = count_pairs(n, pairs, cells=affine_cells(n))
    assert {p: r.count for p, r in merged.items()} == \
           {p: r.count for p, r in unmerged.items()}
    assert {r.cells for r in merged.values()} == {len(rational_cells(n))}


@pytest.mark.parametrize("n", range(1, 11))
def test_peeled_runs_equal_the_peeled_flat_cells(n):
    # the first round peels each canonical run as it peels the same cells
    # flattened and grouped back by their linear parts; the peeled runs
    # hold every cell, so a count reads its cell number off them
    share = burnside._peeled_share([n], "canonical", None, None)
    assert share == burnside._peeled_share([n], "canonical", None,
                                           rational_cells(n))
    assert len(share[n]) == len(conjclasses._rational_groups(n))
    assert sum(len(run) for *_, run in share[n]) == len(rational_cells(n))


def test_canonical_path_builds_no_conjugacy_classes(monkeypatch):
    # the rational cells come from the merged GL classes alone; the
    # conjugacy classes (1,967 at n = 10) are built only for affine_cells,
    # by the same fiber builder over singleton groups
    n, s, k = 5, 3, 1
    merged = [[c.assignment for c in g]
              for g in conjclasses._rational_groups(n)]
    assert (len(merged), len(conjclasses.gl_classes(n))) == (18, 27)
    seen = []

    def spy(n, groups, real=conjclasses._fiber_runs):
        seen.append([[c.assignment for c in g] for g in groups])
        return real(n, groups)

    with monkeypatch.context() as m:
        m.setattr(conjclasses, "_fiber_runs", spy)
        cells = rational_cells(n)
        got = count(n, s, k)
    assert seen == [merged, merged]
    assert sum(c.size for c in cells) == group_orders(n)[1]
    assert got.cells == len(cells)
    unmerged = count_pairs(n, [(k, s)], cells=affine_cells(n))[k, s]
    assert got.count == unmerged.count


def test_count_pairs_threads_agree():
    # the canonical list, and two lists whose runs it never produces: the
    # exhaustive classes at n = 4 are 25 cells in 25 runs, and one linear
    # part recurs in two separate runs of them
    for n, cells in [(4, None), (4, exhaustive_cells(4)),
                     (5, affine_cells(5)[::-1])]:
        serial = count_pairs(n, all_pairs(n), cells=cells)
        threaded = count_pairs(n, all_pairs(n), threads=2, cells=cells)
        assert {p: r.count for p, r in serial.items()} == \
               {p: r.count for p, r in threaded.items()}


def test_pair_partial_sums_any_pair_order():
    # the slice runs one elimination per cell for all pairs; the sums must
    # come back in the caller's order, equal to per-window eliminations
    n = 5
    cells = affine_cells(n)
    pairs = all_pairs(n)
    random.Random(7).shuffle(pairs)
    want = [0] * len(pairs)
    for cell in cells:
        images = monomial_images(cell.rep)
        for i, (k, s) in enumerate(pairs):
            [fixdim] = fixed_space_log2(images, n, [(k, s)])
            want[i] += cell.size << fixdim
    assert partial_sums(n, pairs, cells) == want


def core_groups(n, pairs, cells):
    """The cells of one n, peeled run by run and grouped by core as
    count_pairs groups them."""
    return burnside._peel_groups(
        {n: [peel(n, run) for run in runs(cells)]},
        {n: tuple(pairs)})


def partial_sums(n, pairs, cells):
    """_pair_partial_sums over core_groups: the size-weighted sums, one
    per pair."""
    wanted = {n: tuple(pairs)}
    return burnside._pair_partial_sums(wanted,
                                       core_groups(n, pairs, cells))[n]


def fresh_partial_sums(n, pairs, cells):
    """_pair_partial_sums with every cell's images built afresh."""
    want = [0] * len(pairs)
    for cell in cells:
        fixdims = fixed_space_log2(monomial_images(cell.rep), n, pairs)
        for i, fixdim in enumerate(fixdims):
            want[i] += cell.size << fixdim
    return want


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_partial_sums_any_slicing_or_order(n):
    # count_pairs deals whole groups of one reduced zero coset, but the
    # sums may depend on neither the slicing nor the order of the cells:
    # round-robin slices split the runs, and the reversed list puts each
    # fiber cell before its zero coset
    pairs = tuple(all_pairs(n))
    for cells in (rational_cells(n), affine_cells(n)):
        want = partial_sums(n, pairs, cells)
        partials = [partial_sums(n, pairs, cells[w::3])
                    for w in range(3) if cells[w::3]]
        assert [sum(p) for p in zip(*partials)] == want
        assert partial_sums(n, pairs, cells[::-1]) == want


def test_pair_partial_sums_derive_only_from_the_same_linear_part():
    # a translation of two bits, an equal A after another run, a run
    # whose zero coset comes last and one with no (A, 0) cell: every cell
    # derives its images from its own run's zero coset, never another's
    n = 4
    pairs = tuple(all_pairs(n))
    a1, a2 = gl_classes(n)[5].rep, gl_classes(n)[9].rep
    assert a1 != a2

    def cell(a, b):
        return ConjCell(AffineElement(n, a, BitVector(n, b)), 1)

    cells = [cell(a1, 0), cell(a1, 0b0001), cell(a1, 0b0110),
             cell(a1, 0b1000), cell(a2, 0b0100), cell(a2, 0),
             cell(a1, 0b0010), cell(a2, 0b0010), cell(a2, 0b0011)]
    assert partial_sums(n, pairs, cells) == \
        fresh_partial_sums(n, pairs, cells)


def runs(cells):
    """The maximal blocks of consecutive cells with equal linear parts."""
    return [tuple(run) for _, run in
            itertools.groupby(cells, key=lambda c: c.rep.a)]


def as_run(run):
    """A run of cells as _peel_run takes it: the rows of its linear part
    and (size, translation bits) per cell."""
    return run[0].rep.a.row_bits, [(c.size, c.rep.b.bits) for c in run]


def peel(n, run):
    """_peel_run on a run of cells."""
    return burnside._peel_run(n, *as_run(run))


def free_coordinates(a):
    """The free coordinates of a linear part A: row i and column i of A
    are e_i."""
    return [i for i in range(a.rows)
            if a.row(i).bits == 1 << i and a.column(i).bits == 1 << i]


def squeeze(bits, kept):
    """The bits of bits at the positions kept, renumbered from 0 in that
    order."""
    return sum((bits >> j & 1) << t for t, j in enumerate(kept))


def blocks(a):
    """The connected components of the coordinate graph of A, i ~ j when
    A_ij = 1 or A_ji = 1, as increasing lists, by union-find over the
    entries."""
    parent = list(range(a.rows))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(a.rows):
        for j in range(a.rows):
            if a.row(i)[j]:
                parent[root(i)] = root(j)
    comps = collections.defaultdict(list)
    for i in range(a.rows):
        comps[root(i)].append(i)
    return sorted(comps.values())


def restrict(a, coords):
    """A restricted to the coordinates coords, rows and columns alike."""
    return BitMatrix.from_rows([[a.row(i)[j] for j in coords]
                                for i in coords], len(coords))


@functools.lru_cache(maxsize=None)
def matrix_order(m):
    """The multiplicative order of an invertible BitMatrix, by repeated
    multiplication."""
    power, order = m, 1
    while power != gf2_identity(m.rows):
        power, order = mat_mul(power, m), order + 1
    return order


def split_coordinates(a):
    """V1 of A: the blocks of more than one coordinate of odd order on
    which A xor I has full rank, less any whose order shares a prime with
    the lcm of the orders of the blocks outside, until none does."""
    parts = [(c, restrict(a, c)) for c in blocks(a) if len(c) > 1]
    split = [(c, b) for c, b in parts if matrix_order(b) % 2
             and rank(b ^ gf2_identity(len(c))) == len(c)]
    while True:
        rest = math.lcm(*(matrix_order(b) for c, b in parts
                          if (c, b) not in split))
        kept = [(c, b) for c, b in split
                if math.gcd(matrix_order(b), rest) == 1]
        if kept == split:
            return sorted(i for c, _ in split for i in c)
        split = kept


def core_coordinates(a):
    """The coordinates that are neither free nor split."""
    peeled = free_coordinates(a) + split_coordinates(a)
    return [i for i in range(a.rows) if i not in peeled]


def core_zero_coset(run):
    """(A_2, 0): the linear part of a run restricted to its core, whatever
    the translations of the run's cells."""
    a = run[0].rep.a
    core = core_coordinates(a)
    return AffineElement(len(core), restrict(a, core), BitVector(len(core)))


def split_parts(run):
    """The parts (A_1, 0) of the linear part of a run restricted to V1:
    the connected components of V1's blocks under "their orders share a
    prime", by union-find, ordered by coordinate mask."""
    a = run[0].rep.a
    split = split_coordinates(a)
    v1 = [c for c in blocks(a) if c[0] in split]
    parent = list(range(len(v1)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(v1)), 2):
        if math.gcd(matrix_order(restrict(a, v1[i])),
                    matrix_order(restrict(a, v1[j]))) > 1:
            parent[root(i)] = root(j)
    parts = collections.defaultdict(list)
    for i, c in enumerate(v1):
        parts[root(i)] += c
    return [AffineElement(len(c), restrict(a, sorted(c)), BitVector(len(c)))
            for c in sorted(parts.values(),
                            key=lambda c: sum(1 << i for i in c))]


def expected_builds(cells):
    """The monomial_images calls of one sweep over cells: one per distinct
    part of a split part, for its level counts, in order of first
    appearance, then one per distinct core zero coset."""
    parts, cores = [], []
    for run in runs(cells):
        parts += [p for p in split_parts(run) if p not in parts]
        if core_zero_coset(run) not in cores:
            cores.append(core_zero_coset(run))
    return parts + cores


def peeled_variables(g):
    """The variables g is left with after the peel of its free
    coordinates alone: n less the free coordinates of its A, plus one
    kept as the affine coordinate when b has a bit in them."""
    free = free_coordinates(g.a)
    return g.n - len(free) + any(g.b[i] for i in free)


def test_pair_partial_sums_reuse_imported_linear_parts(monkeypatch, tmp_path):
    # read back from a file, the cells of one linear part hold equal but
    # distinct BitMatrix objects; they still share one image build per
    # core group and one per split part, with the sums of a build per
    # cell
    n = 5
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(n), path)
    cells = import_cells(path)
    pairs = tuple(all_pairs(n))
    assert any(x.rep.a == y.rep.a and x.rep.a is not y.rep.a
               for x, y in zip(cells, cells[1:]))
    built = []

    def spy(g, *args, real=burnside.monomial_images):
        built.append(g)
        return real(g, *args)

    monkeypatch.setattr(burnside, "monomial_images", spy)
    got = partial_sums(n, pairs, cells)
    assert built == expected_builds(cells)
    assert got == fresh_partial_sums(n, pairs, cells)


def conjugated_cells(n):
    """affine_cells(n) with each run conjugated by its own random linear
    h, which spreads the translations over several bits, and its zero
    coset moved to the end."""
    rng = random.Random(n)
    cells = []
    for run in runs(affine_cells(n)):
        h = AffineElement(n, random_element(n, rng).a, BitVector(n, 0))
        moved = [ConjCell(conjugate(h, c.rep), c.size) for c in run]
        cells += sorted(moved, key=lambda c: not c.rep.b.bits)
    return cells


@pytest.mark.parametrize("n", range(3, 9))
def test_images_are_built_once_per_run_in_any_order_or_basis(monkeypatch, n):
    # the conjugated runs still make one build per core group, for its
    # (A_2, 0), and one per split part, taken from A itself in whatever
    # basis, and give the pinned counts
    cells = conjugated_cells(n)
    assert any(c.rep.b.bits & (c.rep.b.bits - 1) for c in cells)
    built = []

    def spy(g, *args, real=burnside.monomial_images):
        built.append(g)
        return real(g, *args)

    monkeypatch.setattr(burnside, "monomial_images", spy)
    got = count_pairs(n, all_pairs(n), cells=cells)
    assert built == expected_builds(cells)
    assert {p: r.count for p, r in got.items()} == pinned_windows()[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_peel_run_matches_the_helpers(n):
    # the engine's one statement of the peel against the helpers here:
    # the rows of the core zero coset and of the split parts, which cells
    # keep y, their core translations with y as bit m, and the rows each
    # feeds to elimination, for the built lists and for runs conjugated
    # into another basis, where most runs are one block that fixes a
    # nonzero vector
    lists = [rational_cells(n), affine_cells(n)]
    if n >= 3:
        lists.append(conjugated_cells(n))
    kept_any = False
    for cells in lists:
        for run in runs(cells):
            zero, parts, r, peeled = peel(n, run)
            free = free_coordinates(run[0].rep.a)
            core = core_coordinates(run[0].rep.a)
            m = len(core)
            assert zero == core_zero_coset(run).a.row_bits, str(run[0].rep)
            assert list(parts) == [p.a.row_bits for p in split_parts(run)], \
                str(run[0].rep)
            assert (r, len(zero)) == (len(free), m)
            assert len(peeled) == len(run)
            for cell, (size, b) in zip(run, peeled):
                touches = int(any(cell.rep.b[i] for i in free))
                keeps = b >> m
                assert size == cell.size
                assert keeps == touches, str(cell.rep)
                assert b == squeeze(cell.rep.b.bits, core) | touches << m
                assert m + keeps == \
                    peeled_variables(cell.rep) - sum(map(len, parts))
                kept_any |= bool(touches)
    assert kept_any


def reduced_elements(n):
    """The reduction of every rational cell at n, as (core element, rows
    of the parts of its split part, free coordinates peeled). The core
    element is (variables, rows of its linear part, translation), and a
    kept y adds the row e_m."""
    elements = []
    for run in runs(rational_cells(n)):
        zero, parts, r, peeled = peel(n, run)
        m = len(zero)
        for _, b in peeled:
            kept = b >> m
            core = (m + kept, zero + (1 << m,) * kept, b)
            elements.append((core, parts, r - kept))
    return elements


def test_reduced_elements_are_distinct_and_nested():
    # within one n no two rational cells reduce to the same core element,
    # split parts and free coordinates, and every core element and part
    # at n - 1 is one at n too. Many cells share a core element or a part
    cores, parts = set(), set()
    sizes, core_sizes, part_sizes = [], [], []
    for n in range(1, 11):
        elements = reduced_elements(n)
        assert len(set(elements)) == len(elements), n
        assert cores <= {core for core, _, _ in elements}, n
        assert parts <= {p for _, key, _ in elements for p in key}, n
        cores = {core for core, _, _ in elements}
        parts = {p for _, key, _ in elements for p in key}
        sizes.append(len(elements))
        core_sizes.append(len(cores))
        part_sizes.append(len(parts))
    assert sizes == [2, 5, 10, 22, 40, 80, 140, 260, 447, 790]
    assert core_sizes == [2, 4, 7, 13, 21, 37, 58, 98, 154, 253]
    assert part_sizes == [0, 1, 2, 5, 6, 13, 14, 27, 35, 57]


def all_windows(top):
    """Every window (m, k, s) with 1 <= m <= top."""
    return [(m, k, s) for m in range(1, top + 1) for k, s in all_pairs(m)]


def reference_windows(top):
    """The windows (n, k, s) of the shipped reference rows with n <= top."""
    return sorted({(e.n, e.k, e.s) for e in load_oracle().entries
                   if e.n <= top})


@pytest.mark.parametrize("windows", [all_windows, reference_windows])
def test_sweep_eliminates_each_reduced_element_once(monkeypatch, windows):
    # one count_pairs over every window of n = 1..8, and over the
    # reference rows of n <= 8 as verify counts them, where the smallest n
    # of a group may need narrower windows than the largest: the rational
    # cells of all n reduce to the 98 core elements of n = 8 and its split
    # parts. Each core element is eliminated once, on the union of the
    # windows its cells need at every n, and each split part once, on the
    # levels they read. Each fixdim must equal a fresh elimination of the
    # element itself on those windows. Within a group, an element with
    # b != 0 derives its images right before its elimination; one with
    # b = 0 reads the group's build, and a split part its own
    zero, derived, seen = None, [], []

    def build_spy(g, *args, real=burnside.monomial_images):
        nonlocal zero
        zero = g
        return real(g, *args)

    def derive_spy(base, m, b, *args, real=burnside.translated_images):
        derived.append(b)
        return real(base, m, b, *args)

    def rank_spy(images, n, windows, real=burnside.fixed_space_log2):
        fixdims = real(images, n, windows)
        seen.append((zero, derived.pop() if derived else 0, tuple(windows),
                     fixdims))
        return fixdims

    monkeypatch.setattr(burnside, "monomial_images", build_spy)
    monkeypatch.setattr(burnside, "translated_images", derive_spy)
    monkeypatch.setattr(burnside, "fixed_space_log2", rank_spy)
    count_pairs(8, windows(8))
    elements = []
    for zero, b, windows, fixdims in seen:
        m = zero.n
        v = m + (b >> m)
        rows = zero.a.row_bits + (1 << m,) * (v - m)
        g = AffineElement(v, BitMatrix(v, v, rows), BitVector(v, b))
        assert fixed_space_log2(monomial_images(g), v, windows) == fixdims, \
            str(g)
        elements.append((v, rows, b))
    reduced = reduced_elements(8)
    cores = {core for core, _, _ in reduced}
    parts = {(len(p), p, 0) for _, key, _ in reduced for p in key}
    assert sorted(elements) == sorted([*cores, *parts])


@pytest.mark.parametrize("n, windows, work", [
    (9, lambda: all_pairs(9), (91, 98, 189, 47_592)),
    (10, lambda: [(8, 10)], (156, 154, 310, 2_912)),
    (10, lambda: reference_windows(10), (156, 154, 310, 162_905)),
], ids=["all-pairs-9", "window-8-10-of-10", "reference-rows-10"])
def test_sweep_work_is_pinned(monkeypatch, n, windows, work):
    # the counts alone miss a sweep that does more work than it needs: a
    # split part eliminated on all its levels instead of the hull the
    # pairs read (21,005 rows on the window (8, 10] of n = 10), cores
    # grouped per n instead of across n, or parts without duality (51,103
    # rows on all pairs of n = 9) all count right. So the calls of each
    # kernel, and the rows the elimination takes in, are pinned exactly
    done = collections.Counter()
    for name in ("monomial_images", "translated_images", "fixed_space_log2"):
        def spy(*args, real=getattr(burnside, name), name=name):
            done[name] += 1
            return real(*args)
        monkeypatch.setattr(burnside, name, spy)

    def rank_spy(rows, *args, real=linrep.rank_of_rows):
        done["rows"] += len(rows)
        return real(rows, *args)

    monkeypatch.setattr(linrep, "rank_of_rows", rank_spy)
    count_pairs(n, windows())
    assert (done["monomial_images"], done["translated_images"],
            done["fixed_space_log2"], done["rows"]) == work


@pytest.mark.parametrize("threads", [1, 2])
def test_one_sweep_counts_as_one_call_per_n(monkeypatch, threads):
    # every window of n = 1..8 over the rational cells, and of n = 1..4
    # over the exhaustive classes, in one call: the same counts and cell
    # numbers as one call per n, with one pool per round for all n, the
    # first over the shares of n, the second over the slices of groups;
    # a serial count's rounds are pools of one share
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for provider, top in (("canonical", 8), ("exhaustive", 4)):
        FakePool.requested, FakePool.mapped = [], []
        got = count_pairs(top, all_windows(top), provider, threads=threads)
        assert FakePool.requested == [threads, threads]
        assert FakePool.mapped == [("_peeled_share", threads),
                                   ("_pair_partial_sums", threads)]
        assert len(got) == len(all_windows(top))
        for m in range(1, top + 1):
            for (k, s), want in count_pairs(m, all_pairs(m), provider).items():
                res = got[m, k, s]
                assert (res.n, res.k, res.s, res.count, res.cells) == \
                    (m, k, s, want.count, want.cells)


def test_count_pairs_rejects_bad_windows(tmp_path):
    # a triple outside 1..n, a bad window and one window given twice, as
    # (k, s) and as (n, k, s); given cells and a cell file hold one n, so
    # a triple for another n is a usage error, never a count
    for bad, match in (([(5, 1, 3)], "n=5 is outside 1..4"),
                       ([(1, 3), (0, -1, 0)], "n=0 is outside 1..4"),
                       ([(3, 2, 4)], "need -1 <= k < s <= n"),
                       ([(1, 3), (4, 1, 3)], "duplicate")):
        with pytest.raises(ValueError, match=match):
            count_pairs(4, bad)
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(4), path)
    for kwargs in ({"provider": "import", "file": path},
                   {"cells": affine_cells(4)}):
        for windows in ([(3, 1, 3)], [(1, 3), (3, 1, 3)]):
            with pytest.raises(ValueError, match="hold n=4 only, not n=3"):
                count_pairs(4, windows, **kwargs)
        assert count_pairs(4, [(4, 1, 3)], **kwargs)[4, 1, 3].count == 5


def test_count_pairs_caps_workers_at_cpu_count(monkeypatch):
    # the cells of n = 5 make 8 core groups: 8 threads on 64 CPUs are
    # capped by neither, 9 by the groups
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    pairs = tuple(all_pairs(5))
    assert len(core_groups(5, pairs, rational_cells(5))) == 8
    serial = {p: r.count for p, r in count_pairs(5, pairs).items()}
    for cpus, threads, workers in [(3, 1000, 3), (3, 2, 2), (None, 8, 1),
                                   (1, 8, 1), (64, 8, 8), (64, 9, 8)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        FakePool.requested = []
        got = count_pairs(5, pairs, threads=threads)
        assert {p: r.count for p, r in got.items()} == serial
        # the first round has one n, so one worker
        assert FakePool.requested == [1, workers]
    # never more workers than groups of one core zero coset: n = 1 has
    # one
    FakePool.requested = []
    count(1, 1, -1, threads=8)
    assert FakePool.requested == [1, 1]


@pytest.mark.parametrize("threads", [1, 2])
def test_count_pairs_builds_images_once_per_linear_part(monkeypatch, threads):
    # each run of cells with one linear part is peeled once, and its cells
    # go to the group of its core zero coset, which runs of several linear
    # parts share; each group goes whole to one slice, and only its
    # (A_2, 0), A restricted to its core, builds images; every cell
    # derives its own from them. Each split part builds its images once,
    # before the slices, for its level counts
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    built, slices, peeled = [], [], []
    real_peel = burnside._peel_run

    def build_spy(g, *args, real=burnside.monomial_images):
        built.append(g)
        return real(g, *args)

    def slice_spy(wanted, groups, real=burnside._pair_partial_sums):
        slices.append(groups)
        return real(wanted, groups)

    def peel_spy(n, rows, run):
        peeled.append((rows, run))
        return real_peel(n, rows, run)

    monkeypatch.setattr(burnside, "monomial_images", build_spy)
    monkeypatch.setattr(burnside, "_pair_partial_sums", slice_spy)
    monkeypatch.setattr(burnside, "_peel_run", peel_spy)
    for n in range(3, 9):
        built.clear()
        slices.clear()
        peeled.clear()
        FakePool.requested = []
        count_pairs(n, all_pairs(n), threads=threads)
        assert FakePool.requested == [1, threads]
        assert len(slices) == threads
        cells = rational_cells(n)
        assert sorted(map(str, built)) == \
            sorted(map(str, expected_builds(cells)))
        assert sorted(peeled) == sorted(map(as_run, runs(cells)))
        # the group of the i-th distinct core lands in slice i mod
        # threads, and holds each distinct core translation of its runs'
        # cells once, in order of first appearance, with their summed sizes
        by_core = {}
        for run in runs(cells):
            a = run[0].rep.a
            free, core = free_coordinates(a), core_coordinates(a)
            by_core.setdefault(core_zero_coset(run), []).extend(
                (c.size, squeeze(c.rep.b.bits, core)
                 | any(c.rep.b[i] for i in free) << len(core))
                for c in run)
        assert len(by_core) < len(runs(cells))
        for w, part in enumerate(slices):
            assert [zero for zero, _ in part] == list(by_core)[w::threads]
            for zero, elements in part:
                sizes = {}
                for size, b in by_core[zero]:
                    sizes[b] = sizes.get(b, 0) + size
                assert [(b, list(by_n), sum(by_n[n].values()))
                        for b, by_n in elements.items()] == \
                    [(b, [n], size) for b, size in sizes.items()]


def test_count_pairs_rejects_threads_below_one():
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            count_pairs(3, all_pairs(3), threads=threads)


def test_burnside_sum_below_group_order_raises(monkeypatch):
    # unreachable with valid cells (each contributes at least its size);
    # the check must still raise, not assert, so `python -O` keeps it
    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        lambda wanted, groups:
                            {n: [0] * len(p) for n, p in wanted.items()})
    with pytest.raises(InexactDivisionError, match="quotient 0"):
        count(3, 3, -1)


def test_count_with_explicit_cells():
    cells = affine_cells(3)
    assert count(3, 3, -1, cells=cells).count == 10
    # too small a size sum, and representatives for n = 4 whose sizes sum
    # to |AGL(3,2)|: one swapped in for an n = 3 rep, or a single cell
    ident4 = identity(4)
    swapped = cells[:-1] + [ConjCell(ident4, cells[-1].size)]
    single = [ConjCell(ident4, group_orders(3)[1])]
    for bad, match in ((cells[:-1], "sum"), (swapped, "n=4, not n=3"),
                       (single, "n=4, not n=3")):
        with pytest.raises(CellDecompositionError, match=match):
            count(3, 3, -1, cells=bad)


def test_tampered_sizes_raise_inexact_division():
    tampered, s, k = find_inexact_swap(3, affine_cells(3))
    assert sum(c.size for c in tampered) == sum(c.size for c in affine_cells(3))
    with pytest.raises(InexactDivisionError):
        count(3, s, k, cells=tampered)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetry_check_clean(n):
    assert symmetry_check(n) == []


def test_symmetry_check_needs_two_variables():
    with pytest.raises(ValueError):
        symmetry_check(1)


def test_resolve_cells_errors():
    with pytest.raises(ValueError):
        resolve_cells(5, "exhaustive")
    with pytest.raises(ValueError):
        resolve_cells(3, "import")
    with pytest.raises(ValueError):
        resolve_cells(3, "mystery")


def test_file_is_read_only_by_import(tmp_path):
    # a cell file given to a computing provider is a usage error, not an
    # ignored argument
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    for provider in ("canonical", "exhaustive"):
        match = (f"cells.txt is read only by provider 'import', "
                 f"not '{provider}'")
        with pytest.raises(ValueError, match=match):
            count(3, 3, -1, provider, file=path)
        with pytest.raises(ValueError, match=match):
            resolve_cells(3, provider, file=path)
    assert count(3, 3, -1, "import", file=path).count == 10


def test_given_cells_take_the_one_dispatch(tmp_path):
    # given cells go through resolve_cells as a provider's do: the
    # provider must still be known, and a cell file beside them is a
    # usage error for every provider, not an ignored argument
    path = tmp_path / "cells.txt"
    cells = affine_cells(3)
    export_cells(cells, path)
    for call in (count_pairs, resolve_cells):
        args = (3, all_pairs(3)) if call is count_pairs else (3,)
        with pytest.raises(ValueError, match="unknown provider 'mystery'"):
            call(*args, "mystery", cells=cells)
        for provider in burnside.PROVIDERS:
            with pytest.raises(ValueError, match="cells.txt given beside"):
                call(*args, provider, file=path, cells=cells)
    # the cells from a file or given, under any provider, count as ever
    for kwargs in ({"provider": "import", "file": path},
                   *({"provider": p, "cells": cells}
                     for p in burnside.PROVIDERS)):
        got = count_pairs(3, all_pairs(3), **kwargs)
        assert {p: r.count for p, r in got.items()} == FROZEN_COUNTS[3]
        assert {r.cells for r in got.values()} == {len(cells)}


def test_resolve_cells_import_checks_n(tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    with pytest.raises(ValueError):
        resolve_cells(4, "import", file=path)
    # the imported classes, grouped by linear part, are the runs the
    # fiber split gives over the GL classes one by one
    assert resolve_cells(3, "import", file=path) == conjclasses._fiber_runs(
        3, [(cls,) for cls in gl_classes(3)])


def test_count_rejects_bad_params():
    with pytest.raises(ValueError):
        count(3, 4, 1)
    with pytest.raises(ValueError):
        count(3, 2, 2)
    with pytest.raises(ValueError):
        count(11, 3, 1)
    with pytest.raises(ValueError):
        count(0, 0, -1)


def test_process_pool_is_loaded_only_when_used():
    # a serial count runs in the caller's process and forks nothing; a
    # pooled one forks its workers itself. Neither imports
    # concurrent.futures or multiprocessing, only a count that forked
    # unpickles a result, and neither leaves a child. The CPU count is
    # pinned so that the pooled count forks
    src = str(Path(rmclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for call, forks, loaded in (
            ("rmclass.count(4, 4, 1)", 0, []),
            ("rmclass.count_pairs(6, rmclass.burnside.all_pairs(6))", 0, []),
            ("rmclass.count(6, 3, 1, threads=2)", 1, ["pickle"])):
        script = ("import os, sys, rmclass, rmclass.cli\n"
                  "os.cpu_count = lambda: 2\n"
                  "forks = []\n"
                  "real_fork = os.fork\n"
                  "os.fork = lambda: forks.append(1) or real_fork()\n"
                  f"{call}\n"
                  "try:\n"
                  "    os.waitpid(-1, os.WNOHANG)\n"
                  "except ChildProcessError:\n"
                  "    pass\n"
                  "else:\n"
                  "    raise SystemExit('a child is left')\n"
                  "print(len(forks), sorted(m for m in (\n"
                  "    'concurrent.futures.process', 'multiprocessing',\n"
                  "    'pickle') if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.strip() == f"{forks} {loaded}", call
    assert burnside.ProcessPoolExecutor is burnside.ForkPool
    with pytest.raises(AttributeError, match="no_such_name"):
        burnside.no_such_name


def test_count_loads_neither_dataclasses_nor_traceback():
    # the value classes generate no code, and the CLI prints a traceback
    # only on its exit-3 path; -S keeps site's imports out of the check
    script = ("import sys, rmclass, rmclass.cli\n"
              "rmclass.count(4, 4, 1)\n"
              "print(sorted(m for m in ('dataclasses', 'traceback')\n"
              "    if m in sys.modules))\n")
    src = str(Path(rmclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "[]"


def test_count_through_spawned_workers():
    # the fork pool pickles neither cells nor groups, but the seam must
    # still accept any executor whose workers unpickle what they are
    # given: spawned workers import rmclass afresh, build and peel the
    # shares of n = 5 and 6 and return their row tuples, then unpickle
    # the groups' value classes. The count runs in a fresh interpreter,
    # so that multiprocessing's resource tracker does not outlive it as a
    # child of this process
    src = str(Path(rmclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import multiprocessing, os\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from rmclass import burnside\n"
        "started = []\n"
        "def spawned_pool(max_workers):\n"
        "    started.append(max_workers)\n"
        "    return ProcessPoolExecutor(\n"
        "        max_workers, mp_context=multiprocessing.get_context('spawn'))\n"
        "windows = [(m, k, s) for m in (5, 6) for k, s in burnside.all_pairs(m)]\n"
        "serial = burnside.count_pairs(6, windows)\n"
        "burnside.ProcessPoolExecutor = spawned_pool\n"
        "os.cpu_count = lambda: 2\n"
        "pooled = burnside.count_pairs(6, windows, threads=2)\n"
        "print(started, {w: (r.count, r.cells) for w, r in pooled.items()}\n"
        "      == {w: (r.count, r.cells) for w, r in serial.items()})\n")
    out = subprocess.run([sys.executable, "-W", "error", "-c", script],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "[2, 2] True"


def test_pool_raises_a_workers_exception(monkeypatch, forked):
    # the class the worker raised, not a wrapper around it
    def worker_slice(wanted, groups):
        raise SliceError("slice failed in a worker")

    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        in_workers(worker_slice))
    with pytest.raises(SliceError, match="slice failed in a worker"):
        count_pairs(6, all_pairs(6), threads=2)
    assert_reaped(forked)


def test_pool_worker_without_a_result(monkeypatch, forked):
    def worker_slice(wanted, groups):
        os._exit(1)

    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        in_workers(worker_slice))
    with pytest.raises(RuntimeError,
                       match=r"worker 1 ended without a result "
                             r"\(wait status 256\)"):
        count_pairs(6, all_pairs(6), threads=2)
    assert_reaped(forked)


def test_pool_kills_its_workers_when_the_caller_raises(monkeypatch, forked):
    # the worker would sleep for a minute; the caller's slice raises at
    # once, so the worker is killed, not waited for
    parent = os.getpid()

    def slice_fn(wanted, groups):
        if os.getpid() == parent:
            raise SliceError("slice failed in the caller")
        time.sleep(60)

    monkeypatch.setattr(burnside, "_pair_partial_sums", slice_fn)
    start = time.monotonic()
    with pytest.raises(SliceError, match="in the caller"):
        count_pairs(6, all_pairs(6), threads=2)
    assert time.monotonic() - start < 30
    assert_reaped(forked)


def test_pool_kills_its_workers_when_another_cannot_start(monkeypatch,
                                                         forked):
    # three workers: the first fork succeeds, the second fails with
    # EAGAIN; the pool kills and reaps the first worker and raises a
    # RuntimeError naming the second. A failed pipe raises the same way
    # before any fork
    spy, calls = os.fork, []

    def fork_once():
        calls.append(1)
        if len(calls) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return spy()

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(RuntimeError,
                       match=rf"pool worker 2 could not start: "
                             rf"\[Errno {errno.EAGAIN}\]"):
        count_pairs(6, all_pairs(6), threads=3)
    assert len(calls) == 2
    assert len(forked) == 1
    assert_reaped(forked)

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    with pytest.raises(RuntimeError, match="pool worker 1 could not start"):
        count_pairs(6, all_pairs(6), threads=3)
    assert len(calls) == 2


def test_count_pairs_forks_nothing_beside_another_thread(monkeypatch,
                                                         forked):
    # a child forked while another thread runs may deadlock on a lock
    # that thread held, so the count runs in this process alone
    serial = {p: r.count for p, r in count_pairs(6, all_pairs(6)).items()}
    pooled = count_pairs(6, all_pairs(6), threads=2)
    assert {p: r.count for p, r in pooled.items()} == serial
    assert len(forked) == 1
    assert_reaped(forked)
    forked.clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        got = count_pairs(6, all_pairs(6), threads=2)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert forked == []
    assert {p: r.count for p, r in got.items()} == serial


def test_count_pairs_forks_nothing_without_fork(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = {p: r.count for p, r in count_pairs(6, all_pairs(6)).items()}
    monkeypatch.delattr(os, "fork")
    got = count_pairs(6, all_pairs(6), threads=2)
    assert {p: r.count for p, r in got.items()} == serial


@pytest.mark.parametrize("n", range(1, 7))
def test_fixdims_match_the_point_permutation_oracle(n):
    # every window of every conjugacy class for n <= 6, and of every
    # element for n <= 3, against the truth-table path of point_fixdims,
    # which shares no code with the substitution kernel: through a
    # one-cell slice (peeled, and derived from its zero coset when b != 0)
    # and through one elimination of the element's own images
    pairs = tuple(all_pairs(n))
    elements = [c.rep for c in affine_cells(n)]
    if n <= 3:
        elements += all_elements(n)
    for g in elements:
        want = point_fixdims(g, pairs)
        assert partial_sums(n, pairs, [ConjCell(g, 1)]) == \
            [1 << f for f in want], str(g)
        assert fixed_space_log2(monomial_images(g), n, pairs) == want, str(g)


@pytest.mark.parametrize("n", range(1, 9))
def test_peeled_fixdims_equal_direct_elimination(n):
    # a one-cell slice of an element with r free coordinates or a split
    # part is eliminated on its core and convolved back with its level
    # counts; every window must match the elimination of the unreduced
    # element, for the built lists and for runs conjugated into another
    # basis
    pairs = tuple(all_pairs(n))
    peeled = split = 0
    lists = [rational_cells(n), affine_cells(n)]
    if n >= 3:
        lists.append(conjugated_cells(n))
    for cells in lists:
        for cell in cells:
            parted = split_coordinates(cell.rep.a)
            if not free_coordinates(cell.rep.a) and not parted:
                continue
            peeled += 1
            split += bool(parted)
            direct = fixed_space_log2(monomial_images(cell.rep), n, pairs)
            got = partial_sums(n, pairs, [ConjCell(cell.rep, 1)])
            assert got == [1 << f for f in direct], str(cell.rep)
    assert peeled > 0
    assert split > 0 or n == 1


@pytest.mark.parametrize("n", [
    *range(1, 9),
    *(pytest.param(n, marks=pytest.mark.extended) for n in (9, 10))])
def test_split_fixdims_match_the_invariant_witness(n):
    # every rational cell through the engine's whole path (peel, split,
    # mirrored level counts, derivation, convolution) against
    # invariant_fixdims on the unreduced rep, which works from the point
    # map alone and shares no code with the images, the peel or the
    # split. At n = 9 and 10 it is the only per-cell check of the level
    # counts of parts on 9 and 10 variables
    pairs = tuple(all_pairs(n))
    for cell in rational_cells(n):
        want = invariant_fixdims(cell.rep, pairs)
        assert partial_sums(n, pairs, [ConjCell(cell.rep, 1)]) == \
            [1 << f for f in want], str(cell.rep)


def test_part_levels_mirror_one_elimination(monkeypatch):
    # N_l = N_(u-l) by duality: every distinct split part of n <= 10 is
    # eliminated only on its levels l <= u / 2, and its level counts,
    # over all levels and over each level alone, equal one elimination of
    # the part on every level
    parts = set()
    for n in range(1, 11):
        for run in runs(rational_cells(n)):
            parts.update(peel(n, run)[1])
    assert len(parts) == 57
    eliminated = []

    def rank_spy(images, n, windows, real=burnside.fixed_space_log2):
        eliminated.append((n, list(windows)))
        return real(images, n, windows)

    monkeypatch.setattr(burnside, "fixed_space_log2", rank_spy)
    for rows in sorted(parts):
        u = len(rows)
        part = AffineElement(u, BitMatrix(u, u, rows), BitVector(u, 0))
        levels = [(l - 1, l) for l in range(u + 1)]
        want = fixed_space_log2(monomial_images(part), u, levels)
        assert list(want) == want[::-1], str(part)
        eliminated.clear()
        assert burnside._part_levels(part, 0, u) == tuple(want), str(part)
        assert eliminated == [(u, levels[:u // 2 + 1])]
        for l in range(u + 1):
            assert burnside._part_levels(part, l, l) == tuple(
                want[l] if j == l else 0 for j in range(u + 1)), (str(part), l)


@pytest.mark.parametrize("r", range(5))
def test_level_counts_are_the_product_polynomial(r):
    # N for r free coordinates and split parts with these level counts is
    # the coefficient list of (1 + x)^r times the parts' polynomials, by
    # brute force over every choice of one term per factor: as long as the
    # product, r + sum(len(c) - 1) + 1, with no zero padded on
    rng = random.Random(r)
    for _ in range(20):
        parts = [tuple(rng.randrange(4) for _ in range(rng.randrange(1, 6)))
                 for _ in range(rng.randrange(4))]
        want = [0] * (r + sum(len(c) - 1 for c in parts) + 1)
        for terms in itertools.product(*map(enumerate, [(1, 1)] * r + parts)):
            want[sum(l for l, _ in terms)] += math.prod(c for _, c in terms)
        assert burnside._level_counts(r, parts) == tuple(want), parts


def test_deal_shares_the_largest_n_first():
    # each n, largest first, goes to the share with the smallest sum of
    # 2^n, the lower one on a tie; the caller counts share 0
    assert burnside._deal(range(3, 10), 2) == [[9], [3, 4, 5, 6, 7, 8]]
    assert burnside._deal(range(3, 11), 2) == [[10], [3, 4, 5, 6, 7, 8, 9]]
    assert burnside._deal(range(3, 10), 3) == [[9], [8], [3, 4, 5, 6, 7]]
    assert burnside._deal(range(3, 11), 3) == [[10], [9], [3, 4, 5, 6, 7, 8]]
    assert burnside._deal([4, 5], 2) == [[5], [4]]
    assert burnside._deal(range(1, 9), 1) == [list(range(1, 9))]


@pytest.mark.parametrize("windows", [all_windows, reference_windows])
def test_pooled_counts_equal_serial_counts(monkeypatch, forked, windows):
    # triples over several n with 1, 2 and 3 workers: each round forks
    # one child per worker but the caller, both rounds reap them all, and
    # the counts and cell numbers are the serial ones
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = {w: (r.count, r.cells)
              for w, r in count_pairs(8, windows(8)).items()}
    assert forked == []
    for threads in (1, 2, 3):
        got = count_pairs(8, windows(8), threads=threads)
        assert {w: (r.count, r.cells) for w, r in got.items()} == serial
        assert len(forked) == 2 * (threads - 1)
        if forked:
            assert_reaped(forked)
        forked.clear()


def test_pool_raises_an_exception_of_the_first_round(monkeypatch, forked):
    # a share that raises in a worker while it builds and peels: its
    # class reaches the caller, before any sweep, and the child is reaped
    def worker_share(share, provider, file, cells):
        raise SliceError(f"share {share} failed in a worker")

    swept = []
    monkeypatch.setattr(burnside, "_peeled_share",
                        in_workers(worker_share, "_peeled_share"))
    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        lambda *args: swept.append(args))
    with pytest.raises(SliceError,
                       match=r"share \[1, 2, 3, 4, 5, 6\] failed in a "
                             r"worker"):
        count_pairs(7, all_windows(7), threads=2)
    assert swept == []
    assert len(forked) == 1
    assert_reaped(forked)


def test_split_counts():
    # the rational cells whose linear part splits off a part V1, by the
    # engine and, at n = 8, by the helpers here
    for n, want in ((8, 162), (9, 293), (10, 537)):
        cells = rational_cells(n)
        got = sum(len(run) for run in runs(cells)
                  if peel(n, run)[1])
        assert (got, len(cells)) == (want, {8: 260, 9: 447, 10: 790}[n])
    assert sum(bool(split_coordinates(c.rep.a))
               for c in rational_cells(8)) == 162


def direct_sum(*blocks):
    """The block-diagonal matrix of the blocks, each a list of 0/1
    strings, in order along the diagonal."""
    n = sum(len(b) for b in blocks)
    rows, off = [], 0
    for b in blocks:
        rows += ["0" * off + row + "0" * (n - off - len(b)) for row in b]
        off += len(b)
    return BitMatrix.from_strings(rows)


# companion blocks of x^2 + x + 1 (order 3), x^3 + x + 1 (order 7),
# x^4 + x^3 + x^2 + x + 1 (order 5) and x^4 + x + 1 (order 15), a
# connected block of order 3 that fixes a nonzero vector (its
# characteristic polynomial is (x + 1)(x^2 + x + 1)), a unipotent block
# of order 2 and a free coordinate
ORDER_3 = ["01", "11"]
ORDER_7 = ["001", "101", "010"]
ORDER_5 = ["0001", "1001", "0101", "0011"]
ORDER_15 = ["0001", "1001", "0100", "0010"]
ORDER_3_FIXING = ["100", "001", "111"]
UNIPOTENT = ["10", "11"]
FREE = ["1"]


def test_split_takes_only_coprime_blocks_without_fixed_points():
    # which blocks split, whatever the order of the blocks along the
    # diagonal, and the sum over every translation of each linear part
    # against fresh eliminations; in the order listed, each translation,
    # on V1 and off it, against the unreduced element's own elimination
    # and the invariant witness:
    # - the order-3 block that fixes a vector stays in the core beside a
    #   split block of order 7, and a translation along its fixed vector
    #   cannot be conjugated away;
    # - beside it, the companion block of order 3 stays in the core too,
    #   since their orders share the prime 3, before it or after it;
    # - beside a unipotent block (order 2), the order-3 block splits, and
    #   its part of b is dropped;
    # - blocks of orders 3 and 7 split as two parts, whose level counts
    #   convolve, and blocks of orders 3 and 15 as one part
    assert [matrix_order(BitMatrix.from_strings(b))
            for b in (ORDER_3, ORDER_7, ORDER_5, ORDER_15, ORDER_3_FIXING)] \
        == [3, 7, 5, 15, 3]
    assert rank(BitMatrix.from_strings(ORDER_3_FIXING)
                ^ gf2_identity(3)) < 3
    assert blocks(BitMatrix.from_strings(ORDER_3_FIXING)) == [[0, 1, 2]]
    cases = (((ORDER_3_FIXING, ORDER_7), [3], 0),
             ((ORDER_3, ORDER_3_FIXING), [], 0),
             ((UNIPOTENT, ORDER_3), [2], 0),
             ((UNIPOTENT, ORDER_3, ORDER_7), [2, 3], 0),
             ((FREE, ORDER_3, ORDER_15), [6], 1))
    for diagonal, parts, r in cases:
        for seq in itertools.permutations(diagonal):
            a = direct_sum(*seq)
            n = a.rows
            pairs = tuple(all_pairs(n))
            cells = [ConjCell(AffineElement(n, a, BitVector(n, b)), 1)
                     for b in range(1 << n)]
            zero, got, free, _ = peel(n, cells)
            assert sorted(len(p) for p in got) == parts
            assert list(got) == [p.a.row_bits for p in split_parts(cells)]
            assert (len(zero), free) == (n - sum(parts) - r, r)
            assert partial_sums(n, pairs, cells) == \
                fresh_partial_sums(n, pairs, cells)
            if seq != diagonal:
                continue
            for cell in cells:
                want = fixed_space_log2(monomial_images(cell.rep), n, pairs)
                assert invariant_fixdims(cell.rep, pairs) == want
                assert partial_sums(n, pairs, [cell]) == \
                    [1 << f for f in want], str(cell.rep)


def test_split_keeps_a_chain_of_blocks_in_the_core_in_any_order():
    # blocks of orders 5 and 15 are odd and fix no vector, but the one of
    # order 15 shares the prime 3 with the order-3 block that fixes a
    # vector, and the one of order 5 shares 5 with it: one component, all
    # core, whichever block comes first. Dropping the blocks that share a
    # prime with the rest, until none does, takes two rounds here
    for seq in itertools.permutations((ORDER_5, ORDER_15, ORDER_3_FIXING)):
        a = direct_sum(*seq)
        n = a.rows
        cells = [ConjCell(AffineElement(n, a, BitVector(n, b)), 1)
                 for b in (0, (1 << n) - 1)]
        assert (n, split_coordinates(a), split_parts(cells)) == (11, [], [])
        assert peel(n, cells) == \
            (a.row_bits, (), 0, [(1, 0), (1, (1 << n) - 1)])


@pytest.mark.parametrize("n", range(1, 8))
def test_cells_that_keep_a_free_coordinate(n):
    # a cell whose b touches the free coordinates F of A keeps one of them
    # on top as its affine coordinate, bit m of the translation its images
    # are derived with: b on one, two or all of F, with and without bits
    # on the other coordinates, for every GL class rep with F nonempty,
    # against the unreduced element's own elimination and, for n <= 5,
    # the point-permutation oracle
    pairs = tuple(all_pairs(n))
    rng = random.Random(n)
    tried = 0
    for cls in gl_classes(n):
        a = cls.rep
        free = free_coordinates(a)
        if not free:
            continue
        kept = sum(1 << i for i in range(n) if i not in free)
        touches = {1 << free[0], 1 << free[-1], sum(1 << i for i in free)}
        if len(free) > 1:
            touches.add(1 << free[0] | 1 << free[1])
        for on_free in touches:
            for rest in {0, kept, kept & rng.randrange(1 << n)}:
                g = AffineElement(n, a, BitVector(n, on_free | rest))
                assert peeled_variables(g) == n - len(free) + 1
                want = fixed_space_log2(monomial_images(g), n, pairs)
                if n <= 5:
                    assert point_fixdims(g, pairs) == want, str(g)
                assert partial_sums(n, pairs, [ConjCell(g, 1)]) == \
                    [1 << fixdim for fixdim in want], str(g)
                tried += 1
    assert tried > 0


def touch_free_coordinates(run):
    """The cells of a run whose b has a bit on the free coordinates of
    their A."""
    free = free_coordinates(run[0].rep.a)
    return [c for c in run if any(c.rep.b[i] for i in free)]


def test_built_runs_hold_at_most_one_cell_that_keeps_a_coordinate():
    # the free coordinates of A are its 1x1 blocks of x + 1, and only the
    # t = 1 fiber orbit's representative lies on them: no built run holds
    # two cells whose b touches them, and every built list has such a run
    for n in range(1, 11):
        for cells in (rational_cells(n), affine_cells(n)):
            touched = [len(touch_free_coordinates(run)) for run in runs(cells)]
            assert max(touched) == 1, n


def test_run_with_several_cells_that_keep_a_coordinate(monkeypatch):
    # no built list makes such a run: b on each of two free coordinates,
    # on both, and with and without bits on the others, plus the zero
    # coset and a cell that peels all of F. Still one build for its core
    # (A_2, 0) and one for its split part, and the sums of a build per
    # cell
    n = 5
    a = next(c.rep for c in gl_classes(n)
             if len(free_coordinates(c.rep)) == 2)
    f0, f1 = free_coordinates(a)
    kept = [i for i in range(n) if i not in (f0, f1)]
    assert kept
    on_k = 1 << kept[0] | 1 << kept[-1]
    pairs = tuple(all_pairs(n))
    cells = [ConjCell(AffineElement(n, a, BitVector(n, b)), 1)
             for b in (1 << f0, 0, 1 << f1 | on_k, 1 << f0 | 1 << f1,
                       1 << kept[0], 1 << f0 | 1 << kept[-1], 1 << f1)]
    assert len(touch_free_coordinates(cells)) == 5
    built = []

    def spy(g, *args, real=burnside.monomial_images):
        built.append(g)
        return real(g, *args)

    monkeypatch.setattr(burnside, "monomial_images", spy)
    got = partial_sums(n, pairs, cells)
    assert built == expected_builds(cells)
    assert got == fresh_partial_sums(n, pairs, cells)


def test_free_coordinates_peel_to_smaller_cells():
    # the rational cells with r free coordinates number as many as the
    # cells without any at n - r (with one, the identity, at n = 0), so
    # cells(n) = sum over m <= n of r0(m)
    per_r = {n: collections.Counter(sum(not c.rep.b[i]
                                        for i in free_coordinates(c.rep.a))
                                    for c in rational_cells(n))
             for n in range(1, 11)}
    r0 = {0: 1, **{n: per_r[n][0] for n in per_r}}
    assert [per_r[10][r] for r in range(11)] == \
        [343, 187, 120, 60, 40, 18, 12, 5, 3, 1, 1]
    for n, counts in per_r.items():
        assert sorted(counts) == list(range(n + 1))
        assert all(counts[r] == r0[n - r] for r in counts)
        assert len(rational_cells(n)) == sum(r0[m] for m in range(n + 1))


WINDOW_COUNTS = Path(__file__).with_name("window_counts.txt")


def pinned_windows():
    """{n: {(k, s): count}} from the regression fixture."""
    pinned = collections.defaultdict(dict)
    for line in WINDOW_COUNTS.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            n, k, s, value = map(int, line.split())
            pinned[n][(k, s)] = value
    return pinned


def test_pinned_windows_cover_every_window_and_the_references():
    pinned = pinned_windows()
    assert sorted(pinned) == list(range(3, 11))
    assert sum(map(len, pinned.values())) == 276
    for n, counts in pinned.items():
        assert sorted(counts) == sorted(all_pairs(n))
        assert all(counts[(k, s)] == counts[(n - 1 - s, n - 1 - k)]
                   for k, s in counts)
    for e in load_oracle().entries:
        assert pinned[e.n][(e.k, e.s)] == e.value


@pytest.mark.parametrize("n", [
    *range(3, 9),
    *(pytest.param(n, marks=pytest.mark.extended) for n in (9, 10))])
def test_counts_match_pinned_windows(n):
    got = count_pairs(n, all_pairs(n))
    assert {p: r.count for p, r in got.items()} == pinned_windows()[n]


def test_random_multi_n_counts_match_pinned_windows():
    # seeded calls of 2 to 6 random windows (m, k, s), 3 <= m <= n, over
    # n = 6..10: the n of one call share their core groups and split
    # parts' level hulls, which a call over one n never mixes. A part
    # that recurs at a later n with a higher lowest level must keep the
    # hull of the earlier one
    rng = random.Random(7)
    pinned = pinned_windows()
    for _ in range(60):
        n = rng.randint(6, 10)
        windows = set()
        for _ in range(rng.randint(2, 6)):
            m = rng.randint(3, n)
            k = rng.randint(-1, m - 1)
            windows.add((m, k, rng.randint(k + 1, m)))
        got = count_pairs(n, sorted(windows))
        assert {w: r.count for w, r in got.items()} == \
            {w: pinned[w[0]][w[1:]] for w in windows}, (n, sorted(windows))


def test_pinned_windows_n4_are_the_orbit_counts():
    # the orbits counted directly, as connected components under the
    # generators, with no Burnside sum: an independent count of the 13
    # n = 4 windows that no reference row names, and of the other two.
    # The same count gives the frozen brute-force values for n <= 3
    for n in (1, 2, 3):
        assert {(k, s): orbit_count(n, s, k)
                for k, s in valid_pairs(n)} == FROZEN_COUNTS[n]
    assert {(k, s): orbit_count(4, s, k)
            for k, s in valid_pairs(4)} == pinned_windows()[4]


def point_cycle_sum(cells):
    """The Burnside sum of the window (-1, n] with no elimination: an
    element fixes a function of it iff the function is constant on its
    point cycles."""
    return sum(c.size << len(to_permutation(c.rep).cycle_type())
               for c in cells)


@pytest.mark.parametrize("n", range(3, 11))
def test_full_window_is_the_point_cycle_sum(n):
    # the sum over either cell list, divided by |AGL(n,2)|, is the pinned
    # count, and the engine, whose peel then takes every j of its
    # convolution, gives it for n <= 8
    want = pinned_windows()[n][(-1, n)]
    order = group_orders(n)[1]
    for cells in (rational_cells(n), affine_cells(n)):
        assert point_cycle_sum(cells) == want * order
    if n <= 8:
        assert count(n, n, -1).count == want


def gl_class_counts(n):
    """The coefficients of x^0..x^n in prod_{r>=1} (1 - x^r)/(1 - 2x^r),
    the number of conjugacy classes of GL(n,2)."""
    series = [1] + [0] * n
    for r in range(1, n + 1):
        for i in range(n, r - 1, -1):  # times 1 - x^r
            series[i] -= series[i - r]
        for i in range(r, n + 1):  # divided by 1 - 2x^r
            series[i] += 2 * series[i - r]
    return series


@pytest.mark.extended
def test_eleven_variables_past_the_supported_range(monkeypatch):
    # the merge's powers follow n, so lifting the one size limit counts
    # n = 11 with no reference rows: its GL classes are the generating
    # function's, every division of the full table is exact (count_pairs
    # raises otherwise), no mirror pair differs, and the full window is
    # the point-cycle sum over the rational cells
    lift_max_n(monkeypatch, 11)
    assert [len(gl_classes(n)) for n in range(1, 12)] == \
        gl_class_counts(11)[1:]
    assert len(gl_classes(11)) == 1998
    got = {p: r.count for p, r in count_pairs(11, all_pairs(11)).items()}
    assert all(got[k, s] == got[10 - s, 10 - k] for k, s in got)
    assert point_cycle_sum(rational_cells(11)) == \
        got[-1, 11] * group_orders(11)[1]
