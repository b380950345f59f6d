import random

import pytest

from conftest import make_example
from rmclass.anf import (
    Anf,
    DegreeOutOfRangeError,
    Monomial,
    anf_of_cv,
    check_params,
    cv,
    evaluate,
    monomial_order,
    project,
    space_dimension,
    substitute,
    substitute_anf,
)
from rmclass.gf2 import BitVector
from rmclass.group import apply, random_element


def poly(n, *terms):
    """The xor of the monomials with the given variable tuples; () is 1."""
    return Anf.from_masks(
        n, [Monomial.from_variables(n, t).mask for t in terms])


def test_check_params_bounds():
    check_params(1, 1, -1)
    check_params(10, 10, 9)
    check_params(3, 1, 0)
    for n, s, k in [(3, 4, 1), (3, 2, 2), (3, 2, -2), (3, 1, 1)]:
        with pytest.raises(ValueError):
            check_params(n, s, k)


def test_space_dimension_examples():
    assert space_dimension(3, 3, -1) == 8
    assert space_dimension(7, 7, 1) == 120
    assert space_dimension(4, 2, 1) == 6
    assert space_dimension(8, 2, 0) == 36
    for n in range(1, 7):
        assert space_dimension(n, n, -1) == 1 << n


def test_monomial_order_examples():
    fmt = lambda n, s, k: [str(m) for m in monomial_order(n, s, k)]
    assert fmt(3, 3, -1) == [
        "x1*x2*x3", "x1*x2", "x1*x3", "x2*x3", "x1", "x2", "x3", "1"]
    assert fmt(3, 1, 0) == ["x1", "x2", "x3"]
    assert fmt(4, 2, 1) == [
        "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4"]


@pytest.mark.parametrize("n,s,k", [(3, 3, -1), (4, 3, 0), (5, 2, 1), (6, 6, 4)])
def test_monomial_order_structure(n, s, k):
    order = monomial_order(n, s, k)
    assert len(order) == space_dimension(n, s, k)
    assert len(set(order)) == len(order)
    degs = [m.mask.bit_count() for m in order]
    assert degs == sorted(degs, reverse=True)
    for a, b in zip(order, order[1:]):
        if a.mask.bit_count() == b.mask.bit_count():
            # ascending lexicographic on the variable tuples within a degree
            va = [i for i in range(n) if a.mask >> i & 1]
            vb = [i for i in range(n) if b.mask >> i & 1]
            assert va < vb


def test_monomial_str():
    assert str(Monomial(3, 0)) == "1"
    assert str(Monomial(4, 0b1010)) == "x2*x4"


def test_cv_examples():
    f = poly(3, (1, 2, 3), (1, 3), (2, 3), (3,), ())
    assert cv(f, 3, -1).entries() == (1, 0, 1, 1, 0, 0, 1, 1)
    assert cv(Anf(3, 0), 3, -1).entries() == (0,) * 8
    assert cv(poly(3, (2,), (3,)), 1, 0).entries() == (0, 1, 1)
    with pytest.raises(DegreeOutOfRangeError):
        cv(Anf(3, 1), 3, 0)  # constant sits below the window
    with pytest.raises(DegreeOutOfRangeError):
        cv(poly(3, (1, 2)), 1, -1)  # degree above the window


def test_cv_roundtrip_exhaustive():
    order = monomial_order(3, 3, -1)
    for bits in range(256):
        c = cv(Anf.from_masks(3, [order[i].mask for i in range(8) if bits >> i & 1]),
               3, -1)
        assert c.bits == BitVector(8, bits)
        assert cv(anf_of_cv(c), 3, -1) == c


def test_project_examples():
    assert project(poly(2, (1, 2), (1,), ()), 2, 1).entries() == (1,)
    assert project(poly(2, (1,), (2,)), 2, 1).entries() == (0,)
    f = poly(3, (1, 2), (3,))
    assert project(f, 2, 0) == cv(f, 2, 0)
    with pytest.raises(DegreeOutOfRangeError):
        project(poly(3, (1, 2, 3)), 2, 0)  # degree above the window


def test_substitute_examples():
    g = make_example()
    assert substitute(Monomial(3, 0b011), g) == poly(3, (1, 2))
    assert substitute(Monomial(3, 0b100), g) == poly(3, (3,))
    assert substitute(Monomial(3, 0b001), g) == poly(3, (1,), (2,), ())
    assert substitute(Monomial(3, 0), g) == Anf(3, 1)


def test_substitute_anf_pointwise():
    # (f o g)(x) = f(g(x)) on every point, for random f and g
    rng = random.Random(17)
    for n in range(1, 5):
        for _ in range(12):
            f = Anf.from_masks(
                n, [m for m in range(1 << n) if rng.random() < 0.4])
            g = random_element(n, rng)
            h = substitute_anf(f, g)
            assert h.degree() <= max(f.degree(), 0)
            for bits in range(1 << n):
                x = BitVector(n, bits)
                assert evaluate(h, x) == evaluate(f, apply(g, x))


def test_evaluate_example():
    f = poly(3, (1, 2, 3), (1, 3), (2, 3), (3,), ())
    assert evaluate(f, BitVector.from_entries([0, 0, 0])) == 1
    assert evaluate(f, BitVector.from_entries([0, 0, 1])) == 0
    assert evaluate(f, BitVector.from_entries([1, 1, 1])) == 1

