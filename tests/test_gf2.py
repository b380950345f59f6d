import random

import pytest

from conftest import TAU_ROWS_UNREACHABLE, all_matrices
from rmclass.gf2 import (
    BitMatrix,
    BitVector,
    SingularMatrixError,
    identity,
    image_basis,
    inverse,
    mat_mul,
    mat_vec,
    nullspace_basis,
    rank,
    rank_of_rows,
    solve,
    solve_commutant,
    transpose,
    unit_vector,
    zero_matrix,
    zero_vector,
)


def random_matrix(n, rng):
    return BitMatrix(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))


def test_bitvector_roundtrips():
    v = BitVector.from_entries([1, 0, 1, 1])
    assert v.n == 4
    assert v.entries() == (1, 0, 1, 1)
    assert str(v) == "1011"
    assert v ^ v == zero_vector(4)
    assert unit_vector(4, 2).entries() == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        v ^ BitVector(3, 0)


def test_bitmatrix_roundtrips():
    rows = ["110", "010", "001"]
    m = BitMatrix.from_strings(rows)
    assert m.to_strings() == rows
    assert m.entry(0, 1) == 1 and m.entry(1, 0) == 0
    assert m.column(0).entries() == (1, 0, 0)
    assert m.column(1).entries() == (1, 1, 0)
    assert (m ^ m) == zero_matrix(3, 3)
    assert str(m) == "110\n010\n001"


def test_rank_examples():
    assert rank(zero_matrix(8, 8)) == 0
    assert rank(identity(5)) == 5
    unreachable = BitMatrix.from_strings(TAU_ROWS_UNREACHABLE)
    assert rank(unreachable) == 8
    assert rank(unreachable ^ identity(8)) == 3


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(6, rng)
        assert rank(m) == rank(transpose(m))
        assert transpose(transpose(m)) == m


def test_rank_of_rows_scattered():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([0, 0]) == 0
    # large scattered pivots are fine, rows are just ints
    assert rank_of_rows([1 << 200, (1 << 200) | 1, 1]) == 2


def test_rank_of_rows_extends_pivots_in_place():
    rng = random.Random(13)
    for _ in range(30):
        rows = [rng.randrange(1 << 12) for _ in range(rng.randrange(1, 16))]
        cut = rng.randrange(len(rows) + 1)
        pivots = {}
        first = rank_of_rows(rows[:cut], pivots)
        assert first == rank_of_rows(rows[:cut]) == len(pivots)
        grown = rank_of_rows(rows[cut:], pivots)
        # the return value is the growth, the dict holds the whole echelon
        assert first + grown == rank_of_rows(rows) == len(pivots)
        assert all(row.bit_length() - 1 == b for b, row in pivots.items())
        assert rank_of_rows(rows, pivots) == 0


def test_rank_of_rows_bands_pick_pivot_in_first_band():
    rng = random.Random(17)
    # interleaved bands, so band order and bit order disagree
    bands = (0b100100100100, 0b010010010010, 0b001001001001)
    for _ in range(30):
        rows = [rng.randrange(1 << 12) for _ in range(rng.randrange(1, 16))]
        pivots = {}
        assert rank_of_rows(rows, pivots, bands) == rank_of_rows(rows)
        for b, row in pivots.items():
            first = next(band for band in bands if row & band)
            assert (row & first).bit_length() - 1 == b


def test_mat_mul_identity_and_square():
    unreachable = BitMatrix.from_strings(TAU_ROWS_UNREACHABLE)
    assert mat_mul(identity(8), unreachable) == unreachable
    assert mat_mul(unreachable, identity(8)) == unreachable
    sq = mat_mul(unreachable, unreachable)
    assert sq.to_strings() == [
        "10000000", "01000000", "00100000", "00010000",
        "00001000", "00000100", "00100010", "00000001",
    ]
    assert sq.entry(3, 2) == 0


def test_mat_mul_associative():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (random_matrix(5, rng) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_vec_columns():
    m = BitMatrix.from_strings(["110", "011", "101"])
    for j in range(3):
        assert mat_vec(m, unit_vector(3, j)) == m.column(j)
    v = BitVector.from_entries([1, 1, 0])
    assert mat_vec(m, v) == m.column(0) ^ m.column(1)


def test_inverse_examples():
    a = BitMatrix.from_strings(["110", "010", "001"])
    assert inverse(a) == a  # involution
    assert inverse(identity(4)) == identity(4)
    with pytest.raises(SingularMatrixError):
        inverse(zero_matrix(3, 3))
    with pytest.raises(SingularMatrixError):
        inverse(BitMatrix.from_strings(["110", "110", "001"]))


def test_inverse_random_roundtrip():
    rng = random.Random(7)
    done = 0
    while done < 40:
        m = random_matrix(6, rng)
        if rank(m) < 6:
            continue
        assert mat_mul(m, inverse(m)) == identity(6)
        assert mat_mul(inverse(m), m) == identity(6)
        done += 1


def test_solve_consistent_and_inconsistent():
    m = BitMatrix.from_strings(["110", "110", "001"])
    assert solve(m, BitVector.from_entries([1, 0, 0])) is None
    x = solve(m, BitVector.from_entries([1, 1, 1]))
    assert x is not None and mat_vec(m, x) == BitVector.from_entries([1, 1, 1])
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(5, rng)
        v = mat_vec(a, BitVector(5, rng.randrange(32)))
        x = solve(a, v)
        assert x is not None and mat_vec(a, x) == v
    with pytest.raises(ValueError):
        solve(m, BitVector(2, 0))


def test_solve_matches_enumeration():
    # solvable exactly when some x hits v, checked over every x and v
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = BitMatrix(rows, cols,
                      tuple(rng.randrange(1 << cols) for _ in range(rows)))
        hits = {mat_vec(m, BitVector(cols, x)).bits for x in range(1 << cols)}
        for v in range(1 << rows):
            x = solve(m, BitVector(rows, v))
            if v in hits:
                assert x is not None and mat_vec(m, x).bits == v
            else:
                assert x is None


def test_nullspace_basis():
    assert nullspace_basis(identity(4)) == []
    z = nullspace_basis(zero_matrix(3, 3))
    assert len(z) == 3
    rng = random.Random(9)
    for _ in range(40):
        m = random_matrix(6, rng)
        basis = nullspace_basis(m)
        assert len(basis) == 6 - rank(m)
        for v in basis:
            assert mat_vec(m, v) == zero_vector(6)
        assert rank_of_rows([v.bits for v in basis]) == len(basis)


def test_image_basis():
    assert image_basis(zero_matrix(3, 3)) == []
    assert len(image_basis(identity(5))) == 5
    a = BitMatrix.from_strings(["110", "010", "001"])
    assert image_basis(a ^ identity(3)) == [BitVector.from_entries([1, 0, 0])]
    rng = random.Random(13)
    for _ in range(40):
        m = random_matrix(6, rng)
        basis = image_basis(m)
        assert len(basis) == rank(m)
        # every column must lie in the span of the basis
        span = {0}
        for v in basis:
            span |= {w ^ v.bits for w in span}
        for j in range(6):
            assert m.column(j).bits in span


@pytest.mark.parametrize("rows,dim", [
    (["10", "01"], 4),          # identity: everything commutes
    (["01", "11"], 2),          # companion of an irreducible quadratic
    (["01", "10"], 2),          # companion of a repeated linear factor
])
def test_solve_commutant_dimensions(rows, dim):
    a = BitMatrix.from_strings(rows)
    basis = solve_commutant(a)
    assert len(basis) == dim
    flat = []
    for x in basis:
        assert mat_mul(x, a) == mat_mul(a, x)
        flat.append(sum(x.row_bits[i] << (i * 2) for i in range(2)))
    assert rank_of_rows(flat) == dim


def test_solve_commutant_exhaustive_cross_check():
    # against direct enumeration of all 2x2 and selected 3x3 matrices
    for a in all_matrices(2):
        expected = sum(
            1 for bits in range(16)
            if mat_mul(x := BitMatrix(2, 2, (bits & 3, bits >> 2)), a)
            == mat_mul(a, x))
        assert 1 << len(solve_commutant(a)) == expected
    rng = random.Random(21)
    for _ in range(5):
        a = random_matrix(3, rng)
        expected = sum(
            1 for bits in range(512)
            if mat_mul(x := BitMatrix(3, 3, (bits & 7, (bits >> 3) & 7, bits >> 6)), a)
            == mat_mul(a, x))
        assert 1 << len(solve_commutant(a)) == expected
