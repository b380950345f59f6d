import random

import pytest

from conftest import all_elements, all_matrices, make_example, random_matrix
from helpers_oracle import agl_order
from rmclass import burnside
from rmclass.conjclasses import rational_runs
from rmclass.gf2 import BitMatrix, BitVector, SingularMatrixError, identity as identity_matrix
from rmclass.gf2 import mat_mul, rank
from rmclass.group import (
    AffineElement,
    NotAffineError,
    Permutation,
    apply,
    compose,
    conjugate,
    element_from_text,
    from_permutation,
    group_orders,
    identity,
    index_of_point,
    inverse,
    order_and_fixes,
    point_of_index,
    random_element,
    to_permutation,
)


def test_affine_element_validation():
    with pytest.raises(SingularMatrixError):
        AffineElement(2, BitMatrix.from_strings(["11", "11"]), BitVector(2, 0))
    with pytest.raises(ValueError):
        AffineElement(3, identity_matrix(2), BitVector(3, 0))
    with pytest.raises(ValueError):
        AffineElement(2, identity_matrix(2), BitVector(3, 0))


def test_index_point_roundtrip():
    # coordinate 1 is the high bit of the index
    assert index_of_point(BitVector.from_entries([1, 0, 0])) == 4
    assert index_of_point(BitVector.from_entries([0, 1, 1])) == 3
    for i in range(16):
        assert index_of_point(point_of_index(i, 4)) == i
    with pytest.raises(ValueError):
        point_of_index(16, 4)


def test_apply_examples():
    g = make_example()
    assert apply(g, BitVector.from_entries([0, 0, 0])).entries() == (1, 0, 0)
    assert apply(g, BitVector.from_entries([1, 1, 0])).entries() == (1, 1, 0)
    e = identity(3)
    for bits in range(8):
        v = BitVector(3, bits)
        assert apply(e, v) == v


def test_compose_inverse_examples():
    g = make_example()
    assert compose(g, g) == identity(3)  # the example is an involution
    assert inverse(g) == g
    assert inverse(identity(4)) == identity(4)
    rng = random.Random(31)
    for _ in range(25):
        a = random_element(4, rng)
        b = random_element(4, rng)
        c = random_element(4, rng)
        assert compose(a, inverse(a)) == identity(4)
        assert compose(inverse(a), a) == identity(4)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        # compose(a, b) means "a after b"
        for bits in range(16):
            v = BitVector(4, bits)
            assert apply(compose(a, b), v) == apply(a, apply(b, v))


def test_conjugate_matches_composition():
    # conjugate(h, g) is h g h^-1, the conjugator first
    for h in all_elements(2):
        for g in all_elements(2):
            assert conjugate(h, g) == compose(compose(h, g), inverse(h))
    rng = random.Random(37)
    for n in (3, 4):
        for _ in range(60):
            h = random_element(n, rng)
            g = random_element(n, rng)
            assert conjugate(h, g) == compose(compose(h, g), inverse(h))


def test_to_permutation_examples():
    g = make_example()
    sigma = to_permutation(g)
    assert sigma.images == (4, 5, 2, 3, 0, 1, 6, 7)
    assert sigma(0) == 4
    assert to_permutation(identity(3)).images == tuple(range(8))
    # n=1: adding the constant 1 swaps the two points
    flip = AffineElement(1, identity_matrix(1), BitVector(1, 1))
    assert to_permutation(flip).images == (1, 0)


def test_permutation_validation_and_cycle_type():
    with pytest.raises(ValueError):
        Permutation(2, (0, 1, 1, 3))
    sigma = Permutation(2, (1, 0, 2, 3))
    assert sigma.cycle_type() == (1, 1, 2)
    assert to_permutation(make_example()).cycle_type() == (1, 1, 1, 1, 2, 2)


def test_from_permutation_roundtrip_exhaustive():
    for n in (1, 2, 3):
        seen = set()
        for g in all_elements(n):
            sigma = to_permutation(g)
            seen.add(sigma.images)
            assert from_permutation(sigma) == g
        assert len(seen) == agl_order(n)


def test_every_permutation_of_four_points_is_affine():
    # the 2-bit affine group is the full symmetric group on 4 points
    import itertools
    for images in itertools.permutations(range(4)):
        g = from_permutation(Permutation(2, images))
        assert to_permutation(g).images == images


def test_from_permutation_rejects_non_affine():
    sigma = Permutation(3, (0, 2, 4, 3, 1, 5, 6, 7))  # 3-cycle fixing 0
    with pytest.raises(NotAffineError):
        from_permutation(sigma)


def test_to_permutation_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(40):
        a = random_element(3, rng)
        b = random_element(3, rng)
        pa, pb = to_permutation(a), to_permutation(b)
        assert (to_permutation(compose(a, b)).images
                == tuple(pa(i) for i in pb.images))


def test_conjugate_preserves_cycle_type():
    rng = random.Random(47)
    for n in (2, 3, 4):
        for _ in range(30):
            g = random_element(n, rng)
            h = random_element(n, rng)
            assert (to_permutation(conjugate(h, g)).cycle_type()
                    == to_permutation(g).cycle_type())


def test_group_orders():
    assert group_orders(1) == (1, 2)
    assert group_orders(3) == (168, 1344)
    for n in range(1, 8):
        gl, agl = group_orders(n)
        assert agl == agl_order(n) and agl == gl << n


def test_random_element_deterministic():
    rng1, rng2 = random.Random(99), random.Random(99)
    a = [random_element(5, rng1) for _ in range(10)]
    b = [random_element(5, rng2) for _ in range(10)]
    assert a == b
    assert len({g.a.row_bits for g in a}) > 1


def test_element_text_roundtrip():
    g = make_example()
    assert element_from_text(str(g)) == g
    rng = random.Random(43)
    for n in (1, 4, 7):
        for _ in range(5):
            h = random_element(n, rng)
            assert element_from_text(str(h)) == h


def test_element_from_text_rejects_malformed():
    # the last text is a well-formed identity element with n = 11, above
    # the supported range
    identity11 = ["".join("1" if j == i else "0" for j in range(11))
                  for i in range(11)]
    for text in ["", "3\n110\n010\n001", "2\n10\n01\n00\nextra",
                 "2\n11\n11\n00", "x\n1\n1",
                 "\n".join(["11"] + identity11 + ["0" * 11])]:
        with pytest.raises((ValueError, NotAffineError)):
            element_from_text(text)


def test_order_and_fixes_match_repeated_multiplication(monkeypatch):
    # every invertible matrix up to 3x3, 200 random ones up to 7x7 and
    # every block the peel meets on the rational runs of n <= 10: the
    # order by multiplying until the identity, and a nonzero fixed vector
    # exactly when A xor I is singular
    rng = random.Random(5)
    sampled = [random_matrix(rng.randrange(4, 8), rng) for _ in range(200)]
    matrices = [m for n in (1, 2, 3) for m in all_matrices(n)]
    matrices += [m for m in sampled if rank(m) == m.rows]
    blocks = set()

    def spy(rows, real=burnside.order_and_fixes):
        blocks.add(rows)
        return real(rows)

    monkeypatch.setattr(burnside, "order_and_fixes", spy)
    for n in range(1, 11):
        for g, run in rational_runs(n):
            burnside._peel_run(n, g.a.row_bits, run)
    # 46 blocks of two or more coordinates, and a free coordinate's (1,)
    assert len(blocks) == 47 and (1,) in blocks
    matrices += [BitMatrix(len(rows), len(rows), rows) for rows in blocks]
    for m in matrices:
        power, order = m, 1
        while power != identity_matrix(m.rows):
            power, order = mat_mul(power, m), order + 1
        fixes = rank(m ^ identity_matrix(m.rows)) < m.rows
        assert order_and_fixes(m.row_bits) == (order, fixes), str(m)
