import collections
import itertools
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from conftest import (
    FakePool,
    SliceError,
    all_elements,
    assert_reaped,
    find_inexact_swap,
    in_workers,
    make_example,
)
from helpers_oracle import (
    FROZEN_COUNTS,
    brute_class_count,
    orbit_count,
    point_fixdims,
    valid_pairs,
)
import rmclass
from rmclass import burnside, conjclasses
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
from rmclass.gf2 import BitMatrix, BitVector, mat_vec
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


def test_canonical_path_builds_no_conjugacy_classes(monkeypatch):
    # the rational cells come from the merged GL classes alone; the
    # conjugacy classes (1,967 at n = 10) are built only for affine_cells,
    # by the same fiber builder over singleton groups
    n, s, k = 5, 3, 1
    merged = [[c.assignment for c in g]
              for g in conjclasses._rational_groups(n)]
    assert (len(merged), len(conjclasses.gl_classes(n))) == (18, 27)
    seen = []

    def spy(n, groups, real=conjclasses._fiber_cells):
        seen.append([[c.assignment for c in g] for g in groups])
        return real(n, groups)

    with monkeypatch.context() as m:
        m.setattr(conjclasses, "_fiber_cells", spy)
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


def partial_sums(n, pairs, cells):
    """_pair_partial_sums over the cells of one n, grouped as count_pairs
    groups them: the size-weighted sums, one per pair."""
    groups = burnside._peel_groups({n: cells})
    return burnside._pair_partial_sums({n: tuple(pairs)}, groups)[n]


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


def free_coordinates(a):
    """The free coordinates of a linear part A: row i and column i of A
    are e_i."""
    return [i for i in range(a.rows)
            if a.row(i).bits == 1 << i and a.column(i).bits == 1 << i]


def squeeze(bits, kept):
    """The bits of bits at the positions kept, renumbered from 0 in that
    order."""
    return sum((bits >> j & 1) << t for t, j in enumerate(kept))


def reduced_zero_coset(run):
    """(A_K, 0): the linear part of a run with its own free coordinates
    deleted, whatever the translations of the run's cells."""
    a = run[0].rep.a
    free = free_coordinates(a)
    kept = [i for i in range(a.rows) if i not in free]
    m = len(kept)
    rows = tuple(squeeze(a.row(i).bits, kept) for i in kept)
    return AffineElement(m, BitMatrix(m, m, rows), BitVector(m, 0))


def peeled_variables(g):
    """The variables g is eliminated on: n less the free coordinates of
    its A, plus one kept as the affine coordinate when b has a bit in
    them."""
    free = free_coordinates(g.a)
    return g.n - len(free) + any(g.b[i] for i in free)


def test_pair_partial_sums_reuse_imported_linear_parts(monkeypatch, tmp_path):
    # read back from a file, the cells of one linear part hold equal but
    # distinct BitMatrix objects; they still share one image build, with
    # the sums of a build per cell
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
    assert built == [reduced_zero_coset(run) for run in runs(cells)]
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
    # the conjugated runs still make one build per run, for their reduced
    # (A, 0), and give the pinned counts
    cells = conjugated_cells(n)
    assert any(c.rep.b.bits & (c.rep.b.bits - 1) for c in cells)
    built = []

    def spy(g, *args, real=burnside.monomial_images):
        built.append(g)
        return real(g, *args)

    monkeypatch.setattr(burnside, "monomial_images", spy)
    got = count_pairs(n, all_pairs(n), cells=cells)
    assert built == [reduced_zero_coset(run) for run in runs(cells)]
    assert {p: r.count for p, r in got.items()} == pinned_windows()[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_peel_run_matches_the_helpers(n):
    # the engine's one statement of the peel against the helpers here:
    # the zero coset, which cells keep y, their reduced translations with
    # y as bit m, and the rows each feeds to elimination, for the built
    # lists and for runs conjugated into another basis
    lists = [rational_cells(n), affine_cells(n)]
    if n >= 3:
        lists.append(conjugated_cells(n))
    kept_any = False
    for cells in lists:
        for run in runs(cells):
            zero, r, peeled = burnside._peel_run(n, list(run))
            free = free_coordinates(run[0].rep.a)
            kept = [i for i in range(n) if i not in free]
            m = len(kept)
            assert zero == reduced_zero_coset(run), str(run[0].rep)
            assert (r, zero.n) == (len(free), m)
            assert len(peeled) == len(run)
            for cell, (size, keeps, b) in zip(run, peeled):
                touches = int(any(cell.rep.b[i] for i in free))
                assert size == cell.size
                assert keeps == touches, str(cell.rep)
                assert b == squeeze(cell.rep.b.bits, kept) | touches << m
                assert 1 << (m + keeps) == 1 << peeled_variables(cell.rep)
                kept_any |= bool(touches)
    assert kept_any


def reduced_elements(n):
    """The reduced element of every rational cell at n, as (variables,
    rows of its linear part, translation): a kept y adds the row e_m."""
    elements = []
    for run in runs(rational_cells(n)):
        zero, _, peeled = burnside._peel_run(n, list(run))
        m = zero.n
        for _, kept, b in peeled:
            elements.append((m + kept, zero.a.row_bits + (1 << m,) * kept, b))
    return elements


def test_reduced_elements_are_distinct_and_nested():
    # within one n no two rational cells reduce to the same element, and
    # every element reduced at n - 1 is reduced at n too
    previous = set()
    sizes = []
    for n in range(1, 11):
        elements = reduced_elements(n)
        assert len(set(elements)) == len(elements), n
        assert previous <= set(elements), n
        previous = set(elements)
        sizes.append(len(elements))
    assert sizes == [2, 5, 10, 22, 40, 80, 140, 260, 447, 790]


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
    # cells of all n reduce to the 260 elements of n = 8, and each is
    # eliminated once, on the union of the windows its cells need at
    # every n. Each fixdim must equal a fresh elimination of the element
    # itself on those windows. Within a group, an element with b != 0
    # derives its images right before its elimination; one with b = 0
    # reads the group's build
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
    assert sorted(elements) == sorted(reduced_elements(8))


@pytest.mark.parametrize("threads", [1, 2])
def test_one_sweep_counts_as_one_call_per_n(monkeypatch, threads):
    # every window of n = 1..8 over the rational cells, and of n = 1..4
    # over the exhaustive classes, in one call: the same counts and cell
    # numbers as one call per n, with one pool for all n
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for provider, top in (("canonical", 8), ("exhaustive", 4)):
        FakePool.requested = []
        got = count_pairs(top, all_windows(top), provider, threads=threads)
        assert FakePool.requested == ([2] if threads == 2 else [])
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
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    serial = {p: r.count for p, r in count_pairs(4, all_pairs(4)).items()}
    for cpus, threads, workers in [(3, 1000, 3), (3, 2, 2), (None, 8, 1),
                                   (1, 8, 1), (64, 8, 8)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        FakePool.requested = []
        got = count_pairs(4, all_pairs(4), threads=threads)
        assert {p: r.count for p, r in got.items()} == serial
        # one worker runs in the caller's process, without a pool
        assert FakePool.requested == ([workers] if workers > 1 else [])
    # never more workers than groups of one reduced zero coset: n = 1 has
    # one
    FakePool.requested = []
    count(1, 1, -1, threads=8)
    assert FakePool.requested == []


@pytest.mark.parametrize("threads", [1, 2])
def test_count_pairs_builds_images_once_per_linear_part(monkeypatch, threads):
    # each run of cells with one linear part is peeled once, and its cells
    # go to the group of its reduced zero coset; each group goes whole to
    # one slice, and only its (A, 0), reduced by the free coordinates of
    # A, builds images; every cell derives its own from them. The runs of
    # the rational cells of one n have distinct zero cosets, so each run
    # is a group of its own
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

    def peel_spy(n, run):
        peeled.append(tuple(run))
        return real_peel(n, run)

    monkeypatch.setattr(burnside, "monomial_images", build_spy)
    monkeypatch.setattr(burnside, "_pair_partial_sums", slice_spy)
    monkeypatch.setattr(burnside, "_peel_run", peel_spy)
    for n in range(3, 9):
        built.clear()
        slices.clear()
        peeled.clear()
        FakePool.requested = []
        count_pairs(n, all_pairs(n), threads=threads)
        assert FakePool.requested == ([2] if threads == 2 else [])
        assert len(slices) == threads
        cells = rational_cells(n)
        zero_cosets = [reduced_zero_coset(run) for run in runs(cells)]
        assert sorted(map(str, built)) == sorted(map(str, zero_cosets))
        assert sorted(peeled, key=str) == sorted(runs(cells), key=str)
        # run i of the whole list is group i, and lands in slice
        # i mod threads
        for w, part in enumerate(slices):
            assert part == [(zero, {n: real_peel(n, list(run))[2]})
                            for i, (zero, run) in enumerate(
                                zip(zero_cosets, runs(cells)))
                            if i % threads == w]


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


def test_resolve_cells_import_checks_n(tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    with pytest.raises(ValueError):
        resolve_cells(4, "import", file=path)
    assert resolve_cells(3, "import", file=path) == affine_cells(3)


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
    # concurrent.futures or multiprocessing, and neither leaves a child.
    # The CPU count is pinned so that the pooled count forks
    src = str(Path(rmclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for call, forks in (("rmclass.count(4, 4, 1)", 0),
                        ("rmclass.count(6, 3, 1, threads=2)", 1)):
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
                  "    'concurrent.futures.process', 'multiprocessing')\n"
                  "    if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.strip() == f"{forks} []", call
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


def test_count_through_spawned_workers(monkeypatch):
    # the fork pool pickles no groups, but the seam must still accept any
    # executor whose workers unpickle them: spawned workers import rmclass
    # afresh and unpickle the groups' value classes
    started = []

    def spawned_pool(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(
            max_workers, mp_context=multiprocessing.get_context("spawn"))

    monkeypatch.setattr(burnside, "ProcessPoolExecutor", spawned_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pairs = all_pairs(6)
    pooled = count_pairs(6, pairs, threads=2)
    assert started == [2]
    serial = count_pairs(6, pairs)
    assert {w: r.count for w, r in pooled.items()} == \
        {w: r.count for w, r in serial.items()}


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
    # a one-cell slice of an element with r free coordinates is eliminated
    # on m = n - r variables and convolved back; every window must match
    # the elimination of the unreduced element
    pairs = tuple(all_pairs(n))
    peeled = 0
    for cells in (rational_cells(n), affine_cells(n)):
        for cell in cells:
            if not free_coordinates(cell.rep.a):
                continue
            peeled += 1
            direct = fixed_space_log2(monomial_images(cell.rep), n, pairs)
            got = partial_sums(n, pairs, [ConjCell(cell.rep, 1)])
            assert got == [1 << f for f in direct], str(cell.rep)
    assert peeled > 0


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
    # coset and a cell that peels all of F. Still one build, for (A_K, 0),
    # and the sums of a build per cell
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
    assert built == [reduced_zero_coset(cells)]
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


@pytest.mark.parametrize("n", range(3, 11))
def test_full_window_is_the_point_cycle_sum(n):
    # an element fixes a function of (-1, n] iff the function is constant
    # on its point cycles: no elimination. The sum over either cell list,
    # divided by |AGL(n,2)|, is the pinned count, and the engine, whose
    # peel then takes every j of its convolution, gives it for n <= 8
    want = pinned_windows()[n][(-1, n)]
    order = group_orders(n)[1]
    for cells in (rational_cells(n), affine_cells(n)):
        total = sum(c.size << len(to_permutation(c.rep).cycle_type())
                    for c in cells)
        assert total == want * order
    if n <= 8:
        assert count(n, n, -1).count == want
