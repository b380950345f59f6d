"""Matrix form of the affine action on quotient coefficient spaces.

g = (A, b) acts on functions by (g.f)(x) = f(Ax xor b); on the coefficient
space with parameters (n, s, k) this action is linear, and its matrix in the
canonical monomial order has column j = the encoded image of basis monomial
j. Substitution composes contravariantly, so tau(g2 o g1) = tau(g1)*tau(g2).

The counting path never materializes the reordered square matrix: ranks are
taken on rows indexed directly by monomial masks (rank is invariant under
simultaneous row/column permutation), see fixed_space_log2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .anf import (
    Anf,
    CoefficientVector,
    _window_indicator,
    anf_of_cv,
    check_params,
    cv,
    monomial_order,
    mul_by_linear,
    space_dimension,
    substitute,
)
from .gf2 import BitMatrix, mat_vec, rank, rank_of_rows
from .group import AffineElement


dimension = space_dimension  # the size of the coefficient space


@dataclass(frozen=True)
class TauMatrix:
    """The action matrix of one group element on one quotient space."""

    n: int
    s: int
    k: int
    matrix: BitMatrix
    source: AffineElement

    def __post_init__(self):
        d = space_dimension(self.n, self.s, self.k)
        if self.matrix.rows != d or self.matrix.cols != d:
            raise ValueError(f"expected a {d}x{d} matrix")
        if rank(self.matrix) != d:
            raise ValueError("action matrix must be invertible")

    def to_strings(self) -> list[str]:
        return self.matrix.to_strings()


def monomial_images(g: AffineElement, max_degree: int | None = None) -> list[int]:
    """Dense term sets of the substituted monomials: entry u is the ANF of
    x -> m_u(Ax xor b) where m_u is the monomial with mask u. Computed by
    dynamic programming over the subset lattice (image of u = image of u
    minus its lowest variable, times one more affine form). Entries of
    degree above max_degree are left as 0 and must not be read."""
    n = g.n
    if max_degree is None:
        max_degree = n
    size = 1 << n
    images = [0] * size
    images[0] = 1
    row_bits = g.a.row_bits
    b = g.b
    for u in range(1, size):
        if u.bit_count() > max_degree:
            continue
        low = u & -u
        j = low.bit_length() - 1
        images[u] = mul_by_linear(images[u ^ low], row_bits[j], b[j], n)
    return images


@functools.lru_cache(maxsize=None)
def _masks_by_degree(n: int) -> tuple[tuple[int, ...], ...]:
    """entry i = the masks of the degree-i monomials, in increasing order."""
    return tuple(tuple(u for u in range(1 << n) if u.bit_count() == i)
                 for i in range(n + 1))


class Echelon:
    """Elimination state of tau xor I on the window (k, top], carried from
    one window (k, s] to the next larger s. An affine substitution sends a
    degree-i monomial to terms of degree <= i, so the rows of (k, s] are the
    rows of (k, s'] of degree <= s, with zeros in the columns above s: the
    rank of (k, s'] is reached by adding only the rows of degrees s+1..s'."""

    def __init__(self, k: int):
        self.k = k
        self.pivots: dict[int, int] = {}  # pivot bit -> row; rank = size
        self.top = k  # highest degree whose rows have been added


def fixed_space_log2(images: list[int], n: int, s: int, k: int,
                     echelon: Echelon | None = None) -> int:
    """log2 of the number of coefficient vectors fixed by the element whose
    monomial images are given: d - rank(tau xor I) on the window (k, s].
    An echelon for this k (empty if none is given) is extended in place by
    the rows of degrees top+1..s. Rows are kept in monomial-mask positions,
    not the canonical order: the same permutation of rows and columns
    preserves rank."""
    d = space_dimension(n, s, k)
    if echelon is None:
        echelon = Echelon(k)
    elif echelon.k != k:
        raise ValueError(f"echelon built for k={echelon.k}, not k={k}")
    if s < echelon.top:
        raise ValueError(
            f"echelon already holds degrees up to {echelon.top} > s={s}")
    # the rows added so far have no terms above their own degree, so one
    # mask per k (drop degrees <= k) serves every s
    window = _window_indicator(n, n, k)
    rows = [(images[u] & window) ^ (1 << u)
            for i in range(echelon.top + 1, s + 1)
            for u in _masks_by_degree(n)[i]]
    rank_of_rows(rows, echelon.pivots)
    echelon.top = s
    return d - len(echelon.pivots)


def tau_matrix(g: AffineElement, s: int, k: int) -> TauMatrix:
    """The action matrix in the canonical monomial order: column j is the
    coefficient vector of the image of basis monomial j, with terms of
    degree <= k dropped (the quotient reduction)."""
    n = g.n
    check_params(n, s, k)
    order = monomial_order(n, s, k)
    window = _window_indicator(n, s, k)
    pos = {m.mask: p for p, m in enumerate(order)}
    d = len(order)
    rows = [0] * d
    for col, m in enumerate(order):
        img = substitute(m, g).terms & window
        while img:
            low = img & -img
            rows[pos[low.bit_length() - 1]] |= 1 << col
            img ^= low
    return TauMatrix(n, s, k, BitMatrix(d, d, tuple(rows)), g)


def act_on_coefficients(t: TauMatrix, f: Anf) -> Anf:
    """Apply the matrix to a function of the window: the encoded form of
    f(Ax xor b) reduced mod degrees <= k. Convenience for tests and CLI."""
    c = cv(f, t.s, t.k)
    return anf_of_cv(CoefficientVector(t.n, t.s, t.k, mat_vec(t.matrix, c.bits)))
