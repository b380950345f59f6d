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
from typing import Sequence

from .anf import (
    _window_indicator,
    check_params,
    monomial_order,
    mul_by_linear,
    space_dimension,
    substitute,
)
from .gf2 import BitMatrix, Value, rank, rank_of_rows
from .group import AffineElement


class TauMatrix(Value):
    """The action matrix, a BitMatrix, of one group element source (an
    AffineElement) on the quotient space with parameters (n, s, k)."""

    __slots__ = ("n", "s", "k", "matrix", "source")

    def __post_init__(self):
        d = space_dimension(self.n, self.s, self.k)
        if self.matrix.rows != d or self.matrix.cols != d:
            raise ValueError(f"expected a {d}x{d} matrix")
        if rank(self.matrix) != d:
            raise ValueError("action matrix must be invertible")

    def to_strings(self) -> list[str]:
        return self.matrix.to_strings()


def monomial_images(g: AffineElement, max_degree: int | None = None,
                    k: int = -1) -> list[int]:
    """Dense term sets of the substituted monomials: entry u is the ANF of
    x -> m_u(Ax xor b) where m_u is the monomial with mask u. Computed by
    dynamic programming over the subset lattice (image of u = image of u
    minus its lowest variable, times one more affine form). Only the entries
    that a window (k, max_degree] reads are filled, with those they are
    built from (see _image_masks); the others are left as 0 and must not be
    read."""
    n = g.n
    if max_degree is None:
        max_degree = n
    images = [0] * (1 << n)
    images[0] = 1
    row_bits = g.a.row_bits
    b = g.b.bits
    for u in _image_masks(n, max_degree, k):
        low = u & -u
        j = low.bit_length() - 1
        images[u] = mul_by_linear(images[u ^ low], row_bits[j], (b >> j) & 1,
                                  n)
    return images


def translated_images(base: list[int], n: int, b: int,
                      max_degree: int | None = None, k: int = -1) -> list[int]:
    """The images of (A, b) for any translation b, from the images base of
    (A, 0) on n variables. Translating by one more bit t gives only the
    affine form of that variable the constant 1, so for u containing t,
    image(u) gains image(u - t), which does not contain t; one in-place
    pass per set bit of b, in any order, makes m_u(Ax xor b) = sum over S
    within u & b of image_0(u - S).

    Bit n of b means one more variable y, on top, that A leaves alone: the
    element is (A + 1, b) on n + 1 variables. Then image(u) is unchanged
    for u without y and image(u + y) = image(u) x_y, which moves every
    term of image(u) up by 2^n bits; those entries are written first, and
    the pass for y follows as for any other bit.

    The entries that windows within (k, max_degree] read are exact above
    degree k after every pass: an entry u - t that the pruning left at 0
    would have only terms of degree <= k (see _image_masks). So base must
    hold image(u) exactly for every u < 2^n those windows read or make an
    entry from: a build with the same max_degree and k does, and with bit
    n set so does one with min(max_degree, n) or more and max(k - 1, -1)
    or less."""
    if b < 0 or b >> n > 1:
        raise ValueError(f"translation {b:#x} is out of range for n={n}")
    y = b & 1 << n  # the extra variable, or 0 for none
    n += b >> n
    if max_degree is None:
        max_degree = n
    images = base + [0] * y
    for u in _image_masks_with(n, max_degree, k, y):
        images[u] = base[u ^ y] << y
    while b:
        t = b & -b
        b ^= t
        for u in _image_masks_with(n, max_degree, k, t):
            images[u] ^= images[u ^ t]
    return images


@functools.lru_cache(maxsize=None)
def _image_masks(n: int, top: int, k: int) -> tuple[int, ...]:
    """The masks u != 0 whose images a window (k, top] needs, increasing.
    Image u is built from u minus its lowest variable, so u is needed iff
    it can be grown to a degree in (k, top] by adding variables below its
    lowest one: |u| <= top and |u| + trailing zeros(u) > k."""
    return tuple(u for u in range(1, 1 << n)
                 if u.bit_count() <= top
                 and u.bit_count() + (u & -u).bit_length() - 1 > k)


@functools.lru_cache(maxsize=None)
def _image_masks_with(n: int, top: int, k: int, b: int) -> tuple[int, ...]:
    """The masks of _image_masks(n, top, k) that contain the bit b."""
    return tuple(u for u in _image_masks(n, top, k) if u & b)


@functools.lru_cache(maxsize=None)
def _masks_by_degree(n: int) -> tuple[tuple[int, ...], ...]:
    """entry i = the masks of the degree-i monomials, in increasing order."""
    by_degree = [[] for _ in range(n + 1)]
    for u in range(1 << n):
        by_degree[u.bit_count()].append(u)
    return tuple(map(tuple, by_degree))


@functools.lru_cache(maxsize=None)
def _degree_bands(n: int) -> tuple[int, ...]:
    """entry j = the bit mask of the monomials of degree n - j: the degree
    masks from the top degree down, as rank_of_rows takes its bands."""
    return tuple(sum(1 << u for u in masks)
                 for masks in reversed(_masks_by_degree(n)))


@functools.lru_cache(maxsize=256)
def _window_plan(n: int, pairs: tuple[tuple[int, int], ...]):
    """The checked windows of one fixed_space_log2 call: the smallest k,
    the largest s, and (s, k, dimension) per pair in the order given. A
    bad pair raises, and lru_cache keeps no result for it."""
    for k, s in pairs:
        check_params(n, s, k)
    return (min((k for k, _ in pairs), default=0),
            max((s for _, s in pairs), default=0),
            tuple((s, k, space_dimension(n, s, k)) for k, s in pairs))


def fixed_space_log2(images: list[int], n: int,
                     pairs: Sequence[tuple[int, int]]) -> list[int]:
    """log2 of the number of coefficient vectors fixed by the element whose
    monomial images are given, for each pair (k, s) in the order given:
    d - rank(tau xor I) on the window (k, s].

    One elimination serves every window. The rows of tau xor I are added in
    increasing degree, from the smallest k up to the largest s, and each
    row's pivot is chosen degree-major: its highest-degree nonzero part,
    then the highest bit inside that part. An affine substitution sends a
    degree-i monomial to terms of degree <= i, so a row of degree <= k' is
    zero on the columns above k'; the pivot rows of degree above k' are
    then a basis of the projection onto those columns. So after the rows of
    degrees up to s are in, rank(tau xor I on (k', s]) is the number of
    pivots of degree in (k', s], for every k' in the pairs. Rows are kept
    in monomial-mask positions, not the canonical order: the same
    permutation of rows and columns preserves rank. The pivots are one
    list indexed by monomial mask, extended degree by degree, and
    rank_of_rows counts the new pivots of each degree band in grown."""
    k0, top, windows = _window_plan(n, tuple((k, s) for k, s in pairs))
    pivots = [0] * (1 << n)  # entry u = the row whose pivot is monomial u
    per_degree = [0] * (n + 1)
    # snap[s][j] = pivots of degree j once the rows of degree s were in
    snap = {}
    bands = _degree_bands(n)
    for i in range(k0 + 1, top + 1):
        # terms of degree <= k0 lie in no band: rank_of_rows ignores them.
        # Band j is degree i - j, so grown[j] counts its new pivots
        grown = [0] * (i - k0)
        rank_of_rows([images[u] ^ (1 << u) for u in _masks_by_degree(n)[i]],
                     pivots, bands[n - i:n - k0], grown)
        for j, new in enumerate(grown):
            per_degree[i - j] += new
        snap[i] = per_degree.copy()
    return [d - sum(snap[s][k + 1:]) for s, k, d in windows]


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

