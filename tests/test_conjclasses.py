import random
from collections import Counter

import pytest

from conftest import all_elements, all_matrices
from rmclass import conjclasses
from rmclass.conjclasses import (
    DEFAULT_SEED,
    CellDecompositionError,
    CellFormatError,
    ConjCell,
    affine_cells,
    commutant_units,
    exhaustive_cells,
    export_cells,
    fiber_generators,
    gl_classes,
    import_cells,
    irreducible_polys,
    poly_str,
)
from rmclass.gf2 import identity as identity_matrix, mat_mul, rank
from rmclass.group import AffineElement, BitMatrix, BitVector, conjugate, group_orders


def conjugacy_partition(elements, conjugators):
    """Orbit partition of `elements` under conjugation, by closure over a
    generating set of conjugators. Returns a list of frozensets."""
    index = {g: i for i, g in enumerate(elements)}
    seen = [False] * len(elements)
    parts = []
    for g in elements:
        if seen[index[g]]:
            continue
        orbit = {g}
        stack = [g]
        seen[index[g]] = True
        while stack:
            x = stack.pop()
            for h in conjugators:
                y = conjugate(h, x)
                if y not in orbit:
                    orbit.add(y)
                    seen[index[y]] = True
                    stack.append(y)
        parts.append(frozenset(orbit))
    return parts


def agl_generators(n):
    gens = [AffineElement(n, identity_matrix(n), BitVector(n, 1))]
    if n >= 2:
        shift = BitMatrix(n, n, tuple(1 << ((i + 1) % n) for i in range(n)))
        trans = BitMatrix(n, n, (0b11,) + tuple(1 << i for i in range(1, n)))
        gens.append(AffineElement(n, shift, BitVector(n, 0)))
        gens.append(AffineElement(n, trans, BitVector(n, 0)))
    return gens


def test_irreducible_polys():
    assert irreducible_polys(4) == (3, 7, 11, 13, 19, 25, 31)
    by_degree = Counter(p.bit_length() - 1 for p in irreducible_polys(10))
    # the count of monic irreducibles of each degree (x itself excluded)
    assert [by_degree[d] for d in range(1, 11)] == [1, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_poly_str():
    assert poly_str(3) == "x+1"
    assert poly_str(7) == "x^2+x+1"
    assert poly_str(11) == "x^3+x+1"


def test_gl_classes_small():
    one = gl_classes(1)
    assert len(one) == 1 and one[0].size == 1 and one[0].centralizer == 1
    assert sorted(c.size for c in gl_classes(2)) == [1, 2, 3]
    assert len(gl_classes(3)) == 6
    assert sum(c.size for c in gl_classes(3)) == 168
    assert len(gl_classes(4)) == 14
    assert sum(c.size for c in gl_classes(4)) == 20160


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_class_counting_identity(n):
    for c in gl_classes(n):
        assert rank(c.rep) == n
        assert c.size * c.centralizer == group_orders(n)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_gl_classes_match_exhaustive_partition(n):
    from rmclass.gf2 import inverse as mat_inverse
    gen_pairs = [(g.a, mat_inverse(g.a)) for g in agl_generators(n)[1:]]
    seen = set()
    parts = []
    for m in all_matrices(n):
        if m.row_bits in seen:
            continue
        orbit = {m.row_bits}
        stack = [m]
        while stack:
            x = stack.pop()
            for g, gi in gen_pairs:
                y = mat_mul(mat_mul(g, x), gi)
                if y.row_bits not in orbit:
                    orbit.add(y.row_bits)
                    stack.append(y)
        seen |= orbit
        parts.append(orbit)
    assert sum(len(p) for p in parts) == group_orders(n)[0]
    classes = gl_classes(n)
    assert sorted(len(p) for p in parts) == sorted(c.size for c in classes)
    owner = {bits: i for i, p in enumerate(parts) for bits in p}
    assert sorted(owner[c.rep.row_bits] for c in classes) == list(range(len(parts)))
    for c in classes:
        assert len(parts[owner[c.rep.row_bits]]) == c.size


def test_exhaustive_cells_small():
    one = exhaustive_cells(1)
    assert [(c.rep.a.to_strings(), str(c.rep.b), c.size) for c in one] == [
        (["1"], "0", 1), (["1"], "1", 1)]
    two = exhaustive_cells(2)
    assert sorted(c.size for c in two) == [1, 3, 6, 6, 8]  # symmetric group on 4
    assert sum(c.size for c in two) == 24
    assert sum(c.size for c in exhaustive_cells(3)) == 1344
    with pytest.raises(ValueError):
        exhaustive_cells(5)


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_cells_match_direct_partition(n):
    parts = conjugacy_partition(all_elements(n), agl_generators(n))
    sizes = sorted(len(p) for p in parts)
    cells = exhaustive_cells(n)
    assert sorted(c.size for c in cells) == sizes
    # reps must land in pairwise distinct classes and carry the right size
    owner = {}
    for i, p in enumerate(parts):
        for g in p:
            owner[g] = i
    seen = set()
    for c in cells:
        i = owner[c.rep]
        assert i not in seen
        seen.add(i)
        assert c.size == len(parts[i])


@pytest.mark.parametrize("n", range(1, 7))
def test_affine_cells_cover_group(n):
    cells = affine_cells(n)
    assert sum(c.size for c in cells) == group_orders(n)[1]
    assert all(c.size >= 1 for c in cells)
    assert all(c.rep.n == n for c in cells)


def test_affine_cells_n1():
    assert [(str(c.rep.b), c.size) for c in affine_cells(1)] == [("0", 1), ("1", 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_identity_fiber_splits_by_translation_rank(n):
    # conjugating (I, b) can reach exactly the nonzero translations
    cells = [c for c in affine_cells(n) if c.rep.a == identity_matrix(n)]
    assert sorted(c.size for c in cells) == [1, (1 << n) - 1]


@pytest.mark.parametrize("n", [2, 3])
def test_affine_cells_refine_true_classes(n):
    parts = conjugacy_partition(all_elements(n), agl_generators(n))
    owner = {}
    for i, p in enumerate(parts):
        for g in p:
            owner[g] = i
    per_class = Counter()
    for c in affine_cells(n):
        per_class[owner[c.rep]] += c.size
    assert per_class == Counter({i: len(p) for i, p in enumerate(parts)})


def test_affine_cells_deterministic():
    import rmclass.conjclasses as cc
    build = cc._affine_cells_cached.__wrapped__  # bypass the cache
    assert build(3, DEFAULT_SEED) == build(3, DEFAULT_SEED)
    assert build(3, 7) == build(3, 7)


def test_affine_cells_seed_changes_keep_cover():
    for seed in (2, 3):
        cells = affine_cells(4, seed=seed)
        assert sum(c.size for c in cells) == group_orders(4)[1]


def test_commutant_units_properties():
    rng = random.Random(79)
    for n in (2, 3, 4):
        mats = all_matrices(n)
        for _ in range(4):
            a = mats[rng.randrange(len(mats))]
            units = commutant_units(a, random.Random(5))
            assert len({u.row_bits for u in units}) == len(units)
            assert identity_matrix(n) in units
            for u in units:
                assert rank(u) == n
                assert mat_mul(u, a) == mat_mul(a, u)


def test_fiber_generators_fix_linear_part():
    rng = random.Random(83)
    for n in (2, 3, 4):
        mats = all_matrices(n)
        for _ in range(4):
            a = mats[rng.randrange(len(mats))]
            for h in fiber_generators(a, random.Random(9)):
                assert mat_mul(h.a, a) == mat_mul(a, h.a)
                g = AffineElement(n, a, BitVector(n, rng.randrange(1 << n)))
                assert conjugate(h, g).a == a


def test_fiber_generators_raise_when_solve_fails(monkeypatch):
    monkeypatch.setattr(conjclasses, "solve", lambda m, v: None)
    a = BitMatrix.from_strings(["11", "01"])  # a xor I has rank 1
    with pytest.raises(RuntimeError, match="image"):
        fiber_generators(a, random.Random(9))


def test_exhaustive_cells_size_sum_raises(monkeypatch):
    # every class is one element too large, so the sizes miss |AGL(2,2)|
    monkeypatch.setattr(conjclasses, "ConjCell",
                        lambda rep, size: ConjCell(rep, size + 1))
    with pytest.raises(RuntimeError, match="sum"):
        conjclasses._exhaustive_cells_cached.__wrapped__(2)


def test_export_import_roundtrip(tmp_path):
    for cells in (affine_cells(3), exhaustive_cells(2)):
        path = tmp_path / "cells.txt"
        export_cells(cells, path)
        text = path.read_text()
        assert text.startswith("rmclass-cells v1 ")
        assert import_cells(path) == cells


def test_import_rejects_bad_files(tmp_path):
    cells = affine_cells(2)
    good = tmp_path / "good.txt"
    export_cells(cells, good)
    lines = good.read_text().splitlines()

    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return p

    with pytest.raises(CellFormatError):
        import_cells(write("empty.txt", ""))
    with pytest.raises(CellFormatError):
        import_cells(write("header.txt", "bogus header\n" + "\n".join(lines[1:])))
    with pytest.raises(CellFormatError):
        import_cells(write("trunc.txt", "\n".join(lines[:-1])))
    with pytest.raises(CellFormatError):
        import_cells(write("garbage.txt", "\n".join(lines + ["stray"])))
    # tampered size: format is fine, group cover is not
    assert lines[1].startswith("cell 0 size ")
    bad = lines[:]
    bad[1] = "cell 0 size 2"
    with pytest.raises(CellDecompositionError):
        import_cells(write("sum.txt", "\n".join(bad)))
    # singular linear part
    bad = lines[:]
    bad[2] = "00"
    with pytest.raises(CellDecompositionError):
        import_cells(write("singular.txt", "\n".join(bad)))


def test_affine_cells_rejects_out_of_range():
    with pytest.raises(ValueError):
        affine_cells(11)
    with pytest.raises(ValueError):
        affine_cells(0)
