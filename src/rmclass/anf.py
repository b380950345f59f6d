"""Boolean polynomials in algebraic normal form.

A polynomial on n variables is a set of monomials; the set is packed into a
2**n-bit int (bit u = the monomial whose variables are the set bits of u,
bit t of u meaning x_{t+1}). Addition is xor of term sets; multiplication
expands with the idempotency x_j^2 = x_j, i.e. the product of two monomials
is the union of their masks.

Point vectors use the same layout (bit t = value of x_{t+1}), so evaluating
a monomial at a point is a subset test.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Iterable

from .gf2 import BitVector, Value
from .group import AffineElement


class DegreeOutOfRangeError(ValueError):
    """A term's degree falls outside the admissible window (k, s]."""


def check_params(n: int, s: int, k: int) -> None:
    """Validate a quotient-space parameter triple; k = -1 means no quotient."""
    if not (-1 <= k < s <= n):
        raise ValueError(f"need -1 <= k < s <= n, got n={n} s={s} k={k}")


def space_dimension(n: int, s: int, k: int) -> int:
    """Dimension of the coefficient space: sum of C(n,i) for k < i <= s."""
    check_params(n, s, k)
    return sum(math.comb(n, i) for i in range(k + 1, s + 1))


class Monomial(Value):
    """Product of distinct variables; mask bit t set means x_{t+1} divides it."""

    __slots__ = ("n", "mask")

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_variables(cls, n: int, variables: Iterable[int]) -> "Monomial":
        mask = 0
        for v in variables:
            if not 1 <= v <= n:
                raise ValueError(f"variable x{v} out of range for n={n}")
            mask |= 1 << (v - 1)
        return cls(n, mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def variables(self) -> tuple[int, ...]:
        """1-based variable indices, ascending."""
        return tuple(t + 1 for t in range(self.n) if (self.mask >> t) & 1)

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "*".join(f"x{v}" for v in self.variables)


@functools.lru_cache(maxsize=None)
def monomial_order(n: int, s: int, k: int) -> tuple[Monomial, ...]:
    """Ordered basis of the coefficient space: degrees descending from s to
    k+1; within a degree, ascending lexicographic order of the sorted
    variable-index tuples (x1x2 before x1x3 before x2x3)."""
    check_params(n, s, k)
    order = []
    for deg in range(s, k, -1):
        for combo in combinations(range(1, n + 1), deg):
            order.append(Monomial.from_variables(n, combo))
    return tuple(order)


class Anf(Value):
    """A Boolean function as its xor-of-monomials normal form on n
    variables: bit u of terms set = monomial with mask u present."""

    __slots__ = ("n", "terms")

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.terms < (1 << (1 << self.n)):
            raise ValueError("terms out of range")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Anf":
        terms = 0
        for u in masks:
            if not 0 <= u < (1 << n):
                raise ValueError(f"mask {u} out of range for n={n}")
            terms ^= 1 << u
        return cls(n, terms)

    def masks(self) -> list[int]:
        out = []
        t = self.terms
        while t:
            low = t & -t
            out.append(low.bit_length() - 1)
            t ^= low
        return out

    def degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((u.bit_count() for u in self.masks()), default=-1)

    def contains(self, mask: int) -> bool:
        return bool((self.terms >> mask) & 1)

    def __xor__(self, other: "Anf") -> "Anf":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return Anf(self.n, self.terms ^ other.terms)


class CoefficientVector(Value):
    """Coordinates of a function in the canonical monomial order of the
    quotient space with parameters (n, s, k), as a BitVector bits."""

    __slots__ = ("n", "s", "k", "bits")

    def __post_init__(self):
        d = space_dimension(self.n, self.s, self.k)
        if self.bits.n != d:
            raise ValueError(f"expected length {d}, got {self.bits.n}")

    def entries(self) -> tuple[int, ...]:
        return self.bits.entries()

    def __str__(self) -> str:
        return str(self.bits)


def cv(f: Anf, s: int, k: int) -> CoefficientVector:
    """Coefficient vector of f; every term must have degree in (k, s]."""
    order = monomial_order(f.n, s, k)
    for u in f.masks():
        deg = u.bit_count()
        if deg > s or deg <= k:
            raise DegreeOutOfRangeError(
                f"term of degree {deg} outside window ({k}, {s}]")
    bits = 0
    for pos, m in enumerate(order):
        if f.contains(m.mask):
            bits |= 1 << pos
    return CoefficientVector(f.n, s, k, BitVector(len(order), bits))


def anf_of_cv(c: CoefficientVector) -> Anf:
    """Inverse of cv: rebuild the polynomial from its coordinates."""
    order = monomial_order(c.n, c.s, c.k)
    terms = 0
    for pos, m in enumerate(order):
        if c.bits[pos]:
            terms ^= 1 << m.mask
    return Anf(c.n, terms)


def project(f: Anf, s: int, k: int) -> CoefficientVector:
    """Drop terms of degree <= k (reduction mod the lower-order space), then
    encode; terms of degree > s are an error."""
    check_params(f.n, s, k)
    if f.degree() > s:
        raise DegreeOutOfRangeError(f"degree {f.degree()} exceeds s={s}")
    kept = Anf(f.n, f.terms & _window_indicator(f.n, s, k))
    return cv(kept, s, k)


# --- substitution kernel -------------------------------------------------
#
# Dense term sets make multiplying by one linear form cheap: multiplying
# every present monomial by x_t maps bit u to bit u|2^t, which is a masked
# shift on the whole 2^n-bit set at once.

@functools.lru_cache(maxsize=None)
def _var_masks(n: int) -> tuple[int, ...]:
    """has[t] = positions u (as one 2**n-bit constant) with bit t of u set."""
    out = []
    size = 1 << n
    for t in range(n):
        step = 1 << t
        block = ((1 << step) - 1) << step  # bits [2^t, 2^(t+1))
        pat = 0
        for base in range(0, size, step << 1):
            pat |= block << base
        out.append(pat)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _masks_by_degree(n: int) -> tuple[tuple[int, ...], ...]:
    """entry i = the masks of the degree-i monomials, in increasing order."""
    by_degree = [[] for _ in range(n + 1)]
    for u in range(1 << n):
        by_degree[u.bit_count()].append(u)
    return tuple(map(tuple, by_degree))


@functools.lru_cache(maxsize=None)
def _degree_masks(n: int) -> tuple[int, ...]:
    """entry i = the degree-i monomials as one 2**n-bit term set."""
    return tuple(sum(1 << u for u in masks) for masks in _masks_by_degree(n))


def _window_indicator(n: int, s: int, k: int) -> int:
    """Bit u set iff k < popcount(u) <= s; selects a window of term degrees."""
    check_params(n, s, k)
    return sum(_degree_masks(n)[k + 1:s + 1])


def mul_by_linear(terms: int, row_bits: int, const: int, n: int) -> int:
    """Multiply a dense term set by the affine form (sum of x_{t+1} over set
    bits t of row_bits) xor const."""
    acc = terms if const else 0
    has = _var_masks(n)
    r = row_bits
    while r:
        low = r & -r
        t = low.bit_length() - 1
        keep = terms & has[t]
        acc ^= keep ^ ((terms ^ keep) << (1 << t))
        r ^= low
    return acc


def substitute(m: Monomial, g: "AffineElement") -> Anf:
    """ANF of x -> m(Ax xor b): the product of the affine forms replacing
    each variable of m."""
    if m.n != g.n:
        raise ValueError("variable count mismatch")
    terms = 1  # the constant monomial
    u = m.mask
    while u:
        low = u & -u
        j = low.bit_length() - 1  # variable x_{j+1}, row j of A
        terms = mul_by_linear(terms, g.a.row_bits[j], g.b[j], m.n)
        u ^= low
    return Anf(m.n, terms)


def substitute_anf(f: Anf, g: "AffineElement") -> Anf:
    """ANF of x -> f(Ax xor b)."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    acc = 0
    for u in f.masks():
        acc ^= substitute(Monomial(f.n, u), g).terms
    return Anf(f.n, acc)


def evaluate(f: Anf, x: BitVector) -> int:
    """Value of f at a point given in coordinate layout (bit t = x_{t+1})."""
    if x.n != f.n:
        raise ValueError("point length mismatch")
    # indicator of all submasks of x: bit u set iff u subset of x.bits
    ind = 1
    v = x.bits
    while v:
        low = v & -v
        ind |= ind << low
        v ^= low
    return (f.terms & ind).bit_count() & 1
