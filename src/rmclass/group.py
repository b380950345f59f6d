"""The affine group AGL(n,2) and its permutation picture.

An element is a pair g = (A, b) with A invertible over GF(2), acting on
points by x -> Ax xor b. The permutation picture indexes points by the
big-endian integer convention: i = sum b_k 2^(n-k), so coordinate 1 is the
most significant bit of the index.
"""

from __future__ import annotations

import functools
import math
import random

from .gf2 import (
    BitMatrix,
    BitVector,
    SingularMatrixError,
    Value,
    identity as identity_matrix,
    inverse as mat_inverse,
    mat_mul,
    mat_vec,
    rank,
)

# the largest n the package supports, as in the source paper; every size
# check of a group, a class list or a cell file reads this one value
MAX_N = 10


class NotAffineError(ValueError):
    """A permutation of {0..2^n-1} that is not induced by any (A, b)."""


class AffineElement(Value):
    """g = (A, b) in AGL(n,2): a BitMatrix a, which must be invertible, and
    a BitVector b."""

    __slots__ = ("n", "a", "b")

    def __post_init__(self):
        if self.a.rows != self.n or self.a.cols != self.n or self.b.n != self.n:
            raise ValueError("shape mismatch")
        if rank(self.a) != self.n:
            raise SingularMatrixError("linear part is singular")

    def __str__(self) -> str:
        return "\n".join([str(self.n)] + self.a.to_strings() + [str(self.b)])


class Permutation(Value):
    """A bijection of {0..2^n-1}, stored as the image tuple images."""

    __slots__ = ("n", "images")

    def __post_init__(self):
        size = 1 << self.n
        if len(self.images) != size or sorted(self.images) != list(range(size)):
            raise ValueError("not a bijection of the point set")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * len(self.images)
        lens = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            ln = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                ln += 1
            lens.append(ln)
        return tuple(sorted(lens))


def identity(n: int) -> AffineElement:
    return AffineElement(n, identity_matrix(n), BitVector(n, 0))


def apply(g: AffineElement, x: BitVector) -> BitVector:
    """A·x xor b."""
    return mat_vec(g.a, x) ^ g.b


def compose(g2: AffineElement, g1: AffineElement) -> AffineElement:
    """g2 after g1: x -> g2(g1(x)) = (A2·A1)x xor (A2·b1 xor b2)."""
    if g2.n != g1.n:
        raise ValueError("size mismatch")
    return AffineElement(g2.n, mat_mul(g2.a, g1.a), mat_vec(g2.a, g1.b) ^ g2.b)


def inverse(g: AffineElement) -> AffineElement:
    ainv = mat_inverse(g.a)
    return AffineElement(g.n, ainv, mat_vec(ainv, g.b))


def conjugate(h: AffineElement, g: AffineElement) -> AffineElement:
    """h g h^-1 by the closed form: with h = (C,d), g = (A,b), the result is
    (C A C^-1, (C A C^-1 xor I) d xor C b)."""
    if h.n != g.n:
        raise ValueError("size mismatch")
    m = mat_mul(mat_mul(h.a, g.a), mat_inverse(h.a))
    b = mat_vec(m ^ identity_matrix(h.n), h.b) ^ mat_vec(h.a, g.b)
    return AffineElement(h.n, m, b)


def index_of_point(v: BitVector) -> int:
    """I(v) = sum v_k 2^(n-k): big-endian integer of the coordinate vector."""
    n = v.n
    i = 0
    for t in range(n):
        if (v.bits >> t) & 1:
            i |= 1 << (n - 1 - t)
    return i


def point_of_index(i: int, n: int) -> BitVector:
    """B(i): the coordinate vector whose big-endian integer is i."""
    if not 0 <= i < (1 << n):
        raise ValueError(f"index {i} out of range for n={n}")
    bits = 0
    for t in range(n):
        if (i >> (n - 1 - t)) & 1:
            bits |= 1 << t
    return BitVector(n, bits)


def to_permutation(g: AffineElement) -> Permutation:
    """The permutation i -> I(g(B(i)))."""
    n = g.n
    size = 1 << n
    images = [0] * size
    images[0] = index_of_point(g.b)
    # index bit m corresponds to coordinate n-m; double the filled prefix
    # per bit, low to high, using I(x xor y) = I(x) xor I(y)
    deltas = [index_of_point(mat_vec(g.a, BitVector(n, 1 << t))) for t in range(n)]
    for m in range(n):
        bit = 1 << m
        delta = deltas[n - 1 - m]
        for i in range(bit):
            images[i | bit] = images[i] ^ delta
    return Permutation(n, tuple(images))


@functools.lru_cache(maxsize=None)
def order_and_fixes(rows: tuple[int, ...]) -> tuple[int, bool]:
    """The multiplicative order of the invertible square matrix B with
    these rows, and whether B fixes a nonzero vector, both read off one
    walk of the cycles of B^T, which is similar to B, on the nonzero
    vectors: the lcm of their lengths, and a cycle of length 1. The
    AffineElement check makes the images, doubled from B's rows (the
    columns of B^T), a bijection."""
    d = len(rows)
    AffineElement(d, BitMatrix(d, d, rows), BitVector(d, 0))
    images = [0]  # entry x = B^T x
    for row in rows:
        images += [x ^ row for x in images]
    lens = set()
    for start in range(1, 1 << d):
        x, length = start, 0
        while images[x] >= 0:  # -1 marks a vector already walked
            images[x], x = -1, images[x]
            length += 1
        lens.add(length)
    return math.lcm(*lens - {0}), 1 in lens


def from_permutation(sigma: Permutation) -> AffineElement:
    """Invert the permutation picture: b = B(sigma(0)), column j of A =
    B(sigma(I(e_j))) xor b with I(e_j) = 2^(n-j). Raises NotAffineError when
    the reconstruction is singular or fails the roundtrip."""
    n = sigma.n
    b = point_of_index(sigma(0), n)
    rows = [0] * n
    for j in range(1, n + 1):
        col = point_of_index(sigma(1 << (n - j)), n) ^ b
        for t in range(n):
            if (col.bits >> t) & 1:
                rows[t] |= 1 << (j - 1)
    a = BitMatrix(n, n, tuple(rows))
    try:
        g = AffineElement(n, a, b)
    except SingularMatrixError:
        raise NotAffineError("reconstructed linear part is singular") from None
    if to_permutation(g) != sigma:
        raise NotAffineError("permutation is not affine")
    return g


def group_orders(n: int) -> tuple[int, int]:
    """(|GL(n,2)|, |AGL(n,2)|) as exact integers."""
    if n < 1:
        raise ValueError("n must be positive")
    gl = 1
    for i in range(n):
        gl *= (1 << n) - (1 << i)
    return gl, gl << n


def random_element(n: int, rng: random.Random) -> AffineElement:
    """Uniformly random invertible A by rejection, uniform b."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        m = BitMatrix(n, n, rows)
        if rank(m) == n:
            return AffineElement(n, m, BitVector(n, rng.getrandbits(n)))


def element_from_text(text: str) -> AffineElement:
    """Parse str(g): n, the n rows of A, then b, each n digits; blank lines
    are ignored, and the gf2 constructors reject digits other than 0, 1."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty element text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad element header {lines[0]!r}") from None
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n={n} out of supported range 1..{MAX_N}")
    if len(lines) != n + 2:
        raise ValueError(f"expected {n + 2} lines, got {len(lines)}")
    for ln in lines[1:]:
        if len(ln) != n:
            raise ValueError(f"row {ln!r} does not have {n} digits")
    a = BitMatrix.from_strings(lines[1:n + 1])
    b = BitVector.from_entries(int(c) for c in lines[n + 1])
    return AffineElement(n, a, b)
