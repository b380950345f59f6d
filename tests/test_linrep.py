import random

import pytest

from conftest import (
    TAU_ROWS,
    TAU_ROWS_UNREACHABLE,
    all_elements,
    make_example,
)
from rmclass import linrep
from rmclass.anf import (
    Anf,
    CoefficientVector,
    Monomial,
    _window_indicator,
    anf_of_cv,
    cv,
    monomial_order,
    project,
    space_dimension,
    substitute,
    substitute_anf,
)
from rmclass.burnside import all_pairs
from rmclass.gf2 import BitMatrix, BitVector, identity, mat_mul, mat_vec, rank
from rmclass.conjclasses import affine_cells
from rmclass.group import (
    AffineElement,
    compose,
    identity as group_identity,
    random_element,
    to_permutation,
)
from rmclass.linrep import (
    TauMatrix,
    fixed_space_log2,
    monomial_images,
    tau_matrix,
    translated_images,
)

WINDOWS = [(3, 3, -1), (3, 3, 1), (3, 2, 0), (4, 2, 1), (4, 4, -1), (4, 3, 2)]


def random_anf_in_window(n, s, k, rng):
    masks = [m for m in range(1 << n) if k < m.bit_count() <= s]
    return Anf.from_masks(n, [m for m in masks if rng.random() < 0.5])


def test_dimension_examples():
    assert space_dimension(3, 3, -1) == 8
    assert space_dimension(7, 7, 1) == 120
    for n, s, k in WINDOWS:
        assert space_dimension(n, s, k) == len(monomial_order(n, s, k))


def test_tau_of_identity_is_identity():
    for n, s, k in WINDOWS:
        t = tau_matrix(group_identity(n), s, k)
        assert t.matrix == identity(space_dimension(n, s, k))


def test_tau_matrix_example():
    g = make_example()
    t = tau_matrix(g, 3, -1)
    assert t.to_strings() == TAU_ROWS
    assert (t.n, t.s, t.k) == (3, 3, -1)
    assert t.source == g
    # the involution's action matrix squares to the identity
    assert mat_mul(t.matrix, t.matrix) == identity(8)


def test_tau_example_differs_from_pinned_value_in_one_bit_position():
    # the former, unreachable expected value has one bit shifted in row 7:
    # there the x3 coordinate appears in the image of x2*x3 instead of the
    # image of x1*x3; keep the exact location asserted so drift shows here
    diffs = [(i, j)
             for i in range(8) for j in range(8)
             if TAU_ROWS[i][j] != TAU_ROWS_UNREACHABLE[i][j]]
    assert diffs == [(6, 2), (6, 3)]
    m = tau_matrix(make_example(), 3, -1).matrix
    assert m != BitMatrix.from_strings(TAU_ROWS_UNREACHABLE)


def test_tau_columns_are_substituted_monomials():
    rng = random.Random(53)
    for n, s, k in WINDOWS:
        g = random_element(n, rng)
        t = tau_matrix(g, s, k)
        order = monomial_order(n, s, k)
        for j, m in enumerate(order):
            image = project(substitute(m, g), s, k)
            assert t.matrix.column(j) == image.bits


def test_tau_contravariant():
    # composing maps multiplies action matrices in reverse order
    rng = random.Random(59)
    for n, s, k in WINDOWS:
        for _ in range(8):
            g1 = random_element(n, rng)
            g2 = random_element(n, rng)
            t = tau_matrix(compose(g2, g1), s, k)
            assert t.matrix == mat_mul(tau_matrix(g1, s, k).matrix,
                                       tau_matrix(g2, s, k).matrix)


def test_tau_matrix_matches_substitution():
    rng = random.Random(61)
    for n, s, k in WINDOWS:
        for _ in range(8):
            g = random_element(n, rng)
            t = tau_matrix(g, s, k)
            f = random_anf_in_window(n, s, k, rng)
            acted = anf_of_cv(CoefficientVector(
                n, s, k, mat_vec(t.matrix, cv(f, s, k).bits)))
            assert project(acted, s, k) == project(substitute_anf(f, g), s, k)
            assert cv(acted, s, k).bits == mat_vec(t.matrix, cv(f, s, k).bits)


def test_monomial_images_match_substitute():
    rng = random.Random(67)
    for n in (2, 3, 4):
        g = random_element(n, rng)
        images = monomial_images(g)
        assert len(images) == 1 << n
        assert images[0] == 1  # the constant stays the constant
        for mask in range(1 << n):
            assert images[mask] == substitute(Monomial(n, mask), g).terms


def test_monomial_images_degree_cap():
    rng = random.Random(71)
    g = random_element(4, rng)
    capped = monomial_images(g, max_degree=2)
    full = monomial_images(g)
    for mask in range(16):
        if mask.bit_count() <= 2:
            assert capped[mask] == full[mask]


def test_fixed_space_example():
    g = make_example()
    assert fixed_space_log2(monomial_images(g), 3, [(-1, 3)]) == [6]
    for n, s, k in WINDOWS:
        d = space_dimension(n, s, k)
        images = monomial_images(group_identity(n))
        assert fixed_space_log2(images, n, [(k, s)]) == [d]


def test_fixed_space_matches_vector_enumeration():
    # count Mv == v directly over every coefficient vector
    rng = random.Random(73)
    for n, s, k in [(3, 3, -1), (3, 2, 0), (3, 3, 1), (2, 2, -1)]:
        d = space_dimension(n, s, k)
        for _ in range(6):
            g = random_element(n, rng)
            m = tau_matrix(g, s, k).matrix
            fixed = sum(1 for bits in range(1 << d)
                        if mat_vec(m, BitVector(d, bits)).bits == bits)
            [fixdim] = fixed_space_log2(monomial_images(g), n, [(k, s)])
            assert 1 << fixdim == fixed


def test_tau_matrix_validation():
    g = make_example()
    with pytest.raises(ValueError):
        TauMatrix(3, 3, -1, identity(7), g)  # wrong size
    with pytest.raises(ValueError):
        TauMatrix(3, 3, -1, BitMatrix(8, 8, (0,) * 8), g)  # singular


# --- one degree-major elimination per element, read by every window ------
#
# These invariants hold for every element on their own; none of them reads
# the reference table.

def carried_fixdims(g):
    """{(k, s): fixdim} from one call over every window, checked against
    one call per window."""
    n = g.n
    images = monomial_images(g)
    pairs = all_pairs(n)
    out = dict(zip(pairs, fixed_space_log2(images, n, pairs)))
    # the same windows as a tuple, in another order, answer in that order
    backwards = tuple(reversed(pairs))
    assert fixed_space_log2(images, n, backwards) == \
        [out[p] for p in backwards], g
    for k, s in pairs:
        assert fixed_space_log2(images, n, [(k, s)]) == [out[(k, s)]], \
            (g, k, s)
    return out


def check_fixdim_invariants(g):
    n = g.n
    fix = carried_fixdims(g)
    for (k, s), f in fix.items():
        assert 0 <= f <= space_dimension(n, s, k)
        # (k, s] is an invariant subspace of (k, s+1]: its fixed vectors
        # stay fixed in the larger window
        if s > k + 1:
            assert f >= fix[(k, s - 1)]
    # on the full space, the fixed functions are those constant on each
    # cycle of g on the points of F_2^n
    assert fix[(-1, n)] == len(to_permutation(g).cycle_type())
    # duality: the quotient (n-1-s, n-1-k] carries the contragredient
    # action of g, which fixes as many vectors
    for (k, s), f in fix.items():
        assert f == fix[(n - 1 - s, n - 1 - k)], (g, k, s)


@pytest.mark.parametrize("n", range(1, 9))
def test_fixdim_invariants_all_cells(n):
    for cell in affine_cells(n):
        check_fixdim_invariants(cell.rep)


@pytest.mark.parametrize("n", [9, 10])
def test_fixdim_invariants_spaced_cells(n):
    cells = affine_cells(n)
    for i in range(20):
        check_fixdim_invariants(cells[i * len(cells) // 20].rep)


def test_fixed_space_matches_tau_matrix_rank_all_cells():
    # independent oracle: the canonical-order matrix built by substitute,
    # ranked with plain highest-bit pivots
    for n in range(1, 6):
        pairs = all_pairs(n)
        for cell in affine_cells(n):
            g = cell.rep
            shared = fixed_space_log2(monomial_images(g), n, pairs)
            for (k, s), got in zip(pairs, shared):
                t = tau_matrix(g, s, k).matrix
                want = space_dimension(n, s, k) - rank(t ^ identity(t.rows))
                assert got == want, (g, k, s)
                fresh = monomial_images(g, s, k)
                assert fixed_space_log2(fresh, n, [(k, s)]) == [want], \
                    (g, k, s)


def test_pruned_images_match_full_on_window_masks():
    rng = random.Random(79)
    for n in range(1, 7):
        for _ in range(4):
            g = random_element(n, rng)
            full = monomial_images(g)
            for k in range(-1, n):
                for s in range(k + 1, n + 1):
                    pruned = monomial_images(g, s, k)
                    for u in range(1 << n):
                        if k < u.bit_count() <= s:
                            assert pruned[u] == full[u], (g, k, s, u)


def test_pruned_images_fill_only_what_windows_build_from():
    # a window (8, 10] at n = 10 reads 11 masks and builds them from 44 more
    g = group_identity(10)
    filled = [u for u, image in enumerate(monomial_images(g, 10, 8)) if image]
    assert len(filled) == 1 + 55  # the constant and 55 of the 1023 others
    assert len([u for u in filled if u.bit_count() > 8]) == 11


def test_fixed_space_mixed_pair_order_and_bad_pairs_raise():
    g = make_example()
    images = monomial_images(g)
    # pairs in mixed order, one of them twice, most with k above the
    # smallest: one call answers each in the order asked
    pairs = [(0, 2), (1, 3), (-1, 3), (0, 1), (2, 3), (1, 2), (0, 3), (0, 2)]
    want = []
    for k, s in pairs:
        t = tau_matrix(g, s, k).matrix
        want.append(space_dimension(3, s, k) - rank(t ^ identity(t.rows)))
    assert fixed_space_log2(images, 3, pairs) == want
    assert fixed_space_log2(images, 3, tuple(pairs)) == want
    # pairs loaded from JSON are lists
    assert fixed_space_log2(images, 3, [list(p) for p in pairs]) == want
    # s out of range, k not below s, k below -1: each raises every time,
    # also after a valid call for the same n
    for bad in [(0, 4), (2, 2), (2, 1), (-2, 1)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                fixed_space_log2(images, 3, [(0, 2), bad])
            assert fixed_space_log2(images, 3, [(0, 2)]) == want[:1]


def test_fixed_space_no_windows():
    # no pairs give no windows and an empty list, as count_pairs gives {}
    images = monomial_images(make_example())
    assert fixed_space_log2(images, 3, []) == []
    assert fixed_space_log2(images, 3, ()) == []


# --- images of a fiber cell from those of its zero coset -----------------

def read_part(images, n, top, k):
    """What fixed_space_log2 reads of images for windows within (k, top]:
    the entries of degree in (k, top], without their terms of degree <= k."""
    above_k = _window_indicator(n, n, k)
    return [images[u] & above_k
            for u in range(1 << n) if k < u.bit_count() <= top]


@pytest.mark.parametrize("n", range(1, 9))
def test_translated_images_match_fresh_build(n):
    # every fiber cell (A, e_start) against its own build: on every entry
    # over the full window, and on what each pruned window reads for n <= 6
    fibers = [c.rep for c in affine_cells(n) if c.rep.b.bits]
    assert fibers
    for g in fibers:
        zero = AffineElement(n, g.a, BitVector(n, 0))
        b = g.b.bits
        assert translated_images(monomial_images(zero), n, b) == \
            monomial_images(g), g
        if n > 6:
            continue
        for k, s in all_pairs(n):
            got = translated_images(monomial_images(zero, s, k), n, b, s, k)
            assert read_part(got, n, s, k) == \
                read_part(monomial_images(g, s, k), n, s, k), (g, k, s)


def sample_elements(seed, per_n):
    """Every element for n <= 3, then per_n random elements for each
    n = 4..7 whose translations have two adjacent bits at least."""
    rng = random.Random(seed)
    elements = [g for n in range(1, 4) for g in all_elements(n)]
    for n in range(4, 8):
        for _ in range(per_n):
            b = rng.randrange(1 << n) | 0b11 << rng.randrange(n - 1)
            elements.append(AffineElement(n, random_element(n, rng).a,
                                          BitVector(n, b)))
    return elements


def test_translated_images_take_any_translation():
    # one pass per bit of b: every element for n <= 3 and random elements
    # with translations of several bits for n = 4..7, against their own
    # build on every entry and on what each pruned window reads
    for g in sample_elements(17, 20):
        n = g.n
        zero = AffineElement(n, g.a, BitVector(n, 0))
        b = g.b.bits
        assert translated_images(monomial_images(zero), n, b) == \
            monomial_images(g), g
        for k, s in all_pairs(n):
            got = translated_images(monomial_images(zero, s, k), n, b, s, k)
            assert read_part(got, n, s, k) == \
                read_part(monomial_images(g, s, k), n, s, k), (g, k, s)
    # bit n is valid, the extra top variable of the next test; a bit above
    # it, alone or with bit n, or a negative b is out of range
    images = monomial_images(group_identity(3))
    for b in (0b10000, 0b11000, 0b10011, -1, -0b1000):
        with pytest.raises(ValueError, match="out of range"):
            translated_images(images, 3, b)


def with_top_variable(g):
    """(A + 1, b + e_y) on n + 1 variables: g with one more variable y, on
    top, that A leaves alone and the translation flips."""
    n = g.n
    a = BitMatrix(n + 1, n + 1, g.a.row_bits + (1 << n,))
    return AffineElement(n + 1, a, BitVector(n + 1, g.b.bits | 1 << n))


def test_translated_images_add_a_top_variable():
    # bit n of b: every element for n <= 3 and random elements with
    # translations of several bits for n = 4..7, from the images of (A, 0)
    # on n variables, against a fresh build of (A + 1, b + e_y) on n + 1:
    # on every entry unpruned, and on what each window reads when the base
    # is built with min(s, n) and max(k - 1, -1)
    for g in sample_elements(23, 12):
        n = g.n
        zero = AffineElement(n, g.a, BitVector(n, 0))
        b = g.b.bits | 1 << n
        big = with_top_variable(g)
        assert translated_images(monomial_images(zero), n, b) == \
            monomial_images(big), g
        for k, s in all_pairs(n + 1):
            base = monomial_images(zero, min(s, n), max(k - 1, -1))
            got = translated_images(base, n, b, s, k)
            assert read_part(got, n + 1, s, k) == \
                read_part(monomial_images(big, s, k), n + 1, s, k), (g, k, s)


@pytest.mark.parametrize("n", range(1, 11))
def test_degree_tables_match_their_definitions(n):
    # the masks of each degree by a popcount filter, and each degree's
    # band, top degree first, as the window of that one degree
    assert linrep._masks_by_degree(n) == tuple(
        tuple(u for u in range(1 << n) if u.bit_count() == i)
        for i in range(n + 1))
    assert linrep._degree_bands(n) == tuple(
        _window_indicator(n, i, i - 1) for i in range(n, -1, -1))
