import random

import pytest

from conftest import TAU_ROWS_UNREACHABLE, all_matrices, random_matrix
from helpers_oracle import gf2_rank
from helpers_orbits import solve_commutant
from rmclass.gf2 import (
    BitMatrix,
    BitVector,
    SingularMatrixError,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    rank,
    rank_of_rows,
)


def zero_matrix(n):
    return BitMatrix(n, n, (0,) * n)


def test_bitvector_roundtrips():
    v = BitVector.from_entries([1, 0, 1, 1])
    assert v.n == 4
    assert v.entries() == (1, 0, 1, 1)
    assert str(v) == "1011"
    assert v ^ v == BitVector(4, 0)
    with pytest.raises(ValueError):
        v ^ BitVector(3, 0)


def test_bitmatrix_roundtrips():
    rows = ["110", "010", "001"]
    m = BitMatrix.from_strings(rows)
    assert m.to_strings() == rows
    assert m.row(0)[1] == 1 and m.row(1)[0] == 0
    assert m.column(0).entries() == (1, 0, 0)
    assert m.column(1).entries() == (1, 1, 0)
    assert (m ^ m) == zero_matrix(3)
    assert str(m) == "110\n010\n001"


def test_constructors_take_only_0_and_1():
    # an odd entry used to be read as a 1 and an even one as a 0
    for bad in ([2, 3], [1, 0, 2], [-1], ["1"]):
        with pytest.raises(ValueError, match="not 0 or 1"):
            BitVector.from_entries(bad)
    with pytest.raises(ValueError, match="not 0 or 1"):
        BitMatrix.from_strings(["12", "03"])
    with pytest.raises(ValueError, match="not 0 or 1"):
        BitMatrix.from_rows([[1, 0], [0, 2]])
    assert BitVector.from_entries([True, False, 1]) == BitVector(3, 0b101)
    assert BitMatrix.from_rows([[True, 0], [0, True]]) == identity(2)
    assert BitMatrix.from_rows([]) == BitMatrix(0, 0, ())
    assert BitMatrix.from_rows([], cols=3) == BitMatrix(0, 3, ())
    with pytest.raises(ValueError, match="ragged"):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="ragged"):
        BitMatrix.from_rows([[1, 0]], cols=3)


def test_rank_examples():
    assert rank(zero_matrix(8)) == 0
    assert rank(identity(5)) == 5
    unreachable = BitMatrix.from_strings(TAU_ROWS_UNREACHABLE)
    assert rank(unreachable) == 8
    assert rank(unreachable ^ identity(8)) == 3


def test_rank_transpose_invariant():
    def transpose(m):
        return BitMatrix.from_rows(
            [m.column(j).entries() for j in range(m.cols)], m.rows)

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
        pivots = [0] * 12
        first = rank_of_rows(rows[:cut], pivots)
        assert first == rank_of_rows(rows[:cut]) == 12 - pivots.count(0)
        grown = rank_of_rows(rows[cut:], pivots)
        # the return value is the growth, the list holds the whole echelon
        assert first + grown == rank_of_rows(rows) == 12 - pivots.count(0)
        assert all(row.bit_length() - 1 == b
                   for b, row in enumerate(pivots) if row)
        assert rank_of_rows(rows, pivots) == 0


def test_rank_of_rows_bands_pick_pivot_in_first_band():
    rng = random.Random(17)
    # interleaved bands, so band order and bit order disagree
    bands = (0b100100100100, 0b010010010010, 0b001001001001)
    for _ in range(30):
        rows = [rng.randrange(1 << 12) for _ in range(rng.randrange(1, 16))]
        pivots = [0] * 12
        assert rank_of_rows(rows, pivots, bands) == rank_of_rows(rows)
        for b, row in enumerate(pivots):
            if row:
                first = next(band for band in bands if row & band)
                assert (row & first).bit_length() - 1 == b
        # bits outside every band are ignored
        above = [row | rng.randrange(1 << 4) << 12 for row in rows]
        assert rank_of_rows(above, [0] * 12, bands) == rank_of_rows(rows)
    # a row with nothing inside the bands adds no rank
    pivots = [0] * 12
    assert rank_of_rows([0b101 << 12], pivots, bands) == 0
    assert pivots == [0] * 12


def test_rank_of_rows_list_contract():
    # batches of random rows through one pivot list, banded as
    # fixed_space_log2 bands its rows: the per-band counts add up to the
    # rank growth, every pivot row sits at its own pivot bit, the highest
    # of the first band it meets, and the rank is the oracle's
    rng = random.Random(19)
    width = 16
    bands = tuple(sum(1 << b for b in range(width) if b % 4 == j)
                  for j in (3, 1, 2, 0))
    for _ in range(40):
        pivots = [0] * width
        seen = []
        total = 0
        for _ in range(rng.randrange(1, 5)):
            rows = [rng.randrange(1 << width)
                    for _ in range(rng.randrange(9))]
            seen += rows
            before = pivots.copy()
            grown = [0] * len(bands)
            got = rank_of_rows(rows, pivots, bands, grown)
            # pivots once set stay; grown[j] counts the new ones in band j
            assert all(p == q for p, q in zip(before, pivots) if p)
            assert grown == [sum(1 for b in range(width) if pivots[b]
                                 and not before[b] and band >> b & 1)
                             for band in bands]
            assert sum(grown) == got
            total += got
            assert total == width - pivots.count(0) == gf2_rank(seen)
        per_band = [0] * len(bands)
        for b, row in enumerate(pivots):
            if row:
                j = next(j for j, band in enumerate(bands) if row & band)
                assert (row & bands[j]).bit_length() - 1 == b
                per_band[j] += 1
        assert sum(per_band) == total
    # one band of all bits, as rank and inverse use it
    for _ in range(40):
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(20))]
        grown = [0]
        assert rank_of_rows(rows, [0] * width, (-1,), grown) == \
            grown[0] == gf2_rank(rows) == rank_of_rows(rows)


def test_mat_mul_identity_and_square():
    unreachable = BitMatrix.from_strings(TAU_ROWS_UNREACHABLE)
    assert mat_mul(identity(8), unreachable) == unreachable
    assert mat_mul(unreachable, identity(8)) == unreachable
    sq = mat_mul(unreachable, unreachable)
    assert sq.to_strings() == [
        "10000000", "01000000", "00100000", "00010000",
        "00001000", "00000100", "00100010", "00000001",
    ]
    assert sq.row(3)[2] == 0


def test_mat_mul_associative():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (random_matrix(5, rng) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_vec_columns():
    m = BitMatrix.from_strings(["110", "011", "101"])
    for j in range(3):
        assert mat_vec(m, BitVector(3, 1 << j)) == m.column(j)
    v = BitVector.from_entries([1, 1, 0])
    assert mat_vec(m, v) == m.column(0) ^ m.column(1)


def test_inverse_examples():
    a = BitMatrix.from_strings(["110", "010", "001"])
    assert inverse(a) == a  # involution
    assert inverse(identity(4)) == identity(4)
    with pytest.raises(SingularMatrixError):
        inverse(zero_matrix(3))
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


@pytest.mark.parametrize("n", range(1, 11))
def test_inverse_and_rank_through_list_pivots(n):
    # rank and inverse size their pivot lists by the row width: random
    # matrices of every width up to n = 10, the rank against the oracle
    # and every invertible one round-tripped
    rng = random.Random(23 + n)
    done = 0
    while done < 20:
        m = random_matrix(n, rng)
        assert rank(m) == gf2_rank(m.row_bits)
        if rank(m) < n:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            continue
        assert mat_mul(m, inverse(m)) == identity(n)
        assert mat_mul(inverse(m), m) == identity(n)
        done += 1


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

