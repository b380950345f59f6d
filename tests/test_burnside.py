import os
import random

import pytest

from conftest import find_inexact_swap, make_example
from helpers_oracle import FROZEN_COUNTS, brute_class_count, valid_pairs
from rmclass import burnside
from rmclass.burnside import (
    InexactDivisionError,
    all_pairs,
    count,
    count_pairs,
    fix_count,
    resolve_cells,
    symmetry_check,
)
from rmclass.conjclasses import CellDecompositionError, ConjCell, affine_cells, export_cells
from rmclass.gf2 import BitVector, mat_vec
from rmclass.group import group_orders, identity
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
    assert r.cells == len(affine_cells(3))
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


def test_count_pairs_threads_agree():
    serial = count_pairs(4, all_pairs(4))
    threaded = count_pairs(4, all_pairs(4), threads=2)
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
    assert burnside._pair_partial_sums(n, tuple(pairs), cells) == want


class FakePool:
    """Stands in for ProcessPoolExecutor: records the requested worker
    count and runs the slices in this process, starting nothing."""

    requested = []

    def __init__(self, max_workers):
        FakePool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
    # never more workers than cells
    FakePool.requested = []
    count(1, 1, -1, threads=8)
    assert FakePool.requested == [len(affine_cells(1))]


def test_count_pairs_rejects_threads_below_one():
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            count_pairs(3, all_pairs(3), threads=threads)


def test_burnside_sum_below_group_order_raises(monkeypatch):
    # unreachable with valid cells (each contributes at least its size);
    # the check must still raise, not assert, so `python -O` keeps it
    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        lambda n, pairs, cells: [0] * len(pairs))
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
    for provider in ("canonical", "exhaustive"):
        with pytest.raises(ValueError, match="import provider"):
            resolve_cells(None, provider)


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