"""Conjugation-closed cell decompositions of AGL(n,2).

Three interchangeable providers feed the counting engine:

- exhaustive_cells: walk the whole group (n <= 4 only) and split it into
  true conjugacy classes.
- affine_cells: parametrize GL(n,2) classes by rational canonical form,
  then split each fiber of translations into its orbits under the
  conjugations that fix the linear part. The orbits follow from the
  partition of the x+1 blocks in closed form (see below), so the cells are
  exactly the conjugacy classes.
- import_cells: read a decomposition computed elsewhere from a text file.

Every provider guarantees: each cell's members are mutually conjugate, and
cell sizes sum to |AGL(n,2)|.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .gf2 import BitMatrix, BitVector, SingularMatrixError
from .group import (
    AffineElement,
    Permutation,
    from_permutation,
    group_orders,
    to_permutation,
)


class CellFormatError(ValueError):
    """Cell file does not parse."""


class CellDecompositionError(ValueError):
    """Cells parse but do not form a valid decomposition."""


@dataclass(frozen=True)
class ConjCell:
    """A set of mutually conjugate elements: one representative, exact size."""

    rep: AffineElement
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("cell size must be positive")


@dataclass(frozen=True)
class GlClassDescriptor:
    """A GL(n,2) conjugacy class in rational canonical form.

    assignment maps each monic irreducible polynomial (coefficient-packed
    int, bit i = coefficient of x^i; p(x) = x excluded) to the partition
    listing the exponents of its elementary divisors; pairs are sorted by
    (degree, coefficient bits). rep is the direct sum of the companion
    matrices of p^e.
    """

    assignment: tuple[tuple[int, tuple[int, ...]], ...]
    rep: BitMatrix
    size: int
    centralizer: int


# --- polynomials over GF(2), packed as ints (bit i = coefficient of x^i) ---

def _poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_rem(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _poly_pow(p: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = _poly_mul(r, p)
    return r


@functools.lru_cache(maxsize=None)
def irreducible_polys(max_degree: int) -> tuple[int, ...]:
    """All monic irreducibles of degree 1..max_degree except p(x) = x,
    sorted by (degree, coefficient bits). Found by trial division."""
    out = []
    for deg in range(1, max_degree + 1):
        for p in range(1 << deg, 1 << (deg + 1)):
            if not p & 1:
                continue  # divisible by x
            if all(_poly_rem(p, q) != 0
                   for q in range(2, 1 << (deg // 2 + 1))):
                out.append(p)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _partitions(total: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of total as descending tuples."""
    if total == 0:
        return ((),)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(total, total, [])
    return tuple(out)


def _conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def _companion(poly: int) -> BitMatrix:
    """Companion matrix of a monic polynomial: maps e_j to e_{j+1}, with the
    last column holding the low coefficients."""
    d = poly.bit_length() - 1
    rows = []
    for i in range(d):
        r = (1 << (i - 1)) if i else 0
        if (poly >> i) & 1:
            r |= 1 << (d - 1)
        rows.append(r)
    return BitMatrix(d, d, tuple(rows))


def _direct_sum(blocks: list[BitMatrix]) -> BitMatrix:
    n = sum(b.rows for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        rows.extend(r << off for r in b.row_bits)
        off += b.rows
    return BitMatrix(n, n, tuple(rows))


def _centralizer_order(assignment) -> int:
    """|{X in GL : X commutes with the class rep}|, from the partition data:
    product over polynomials of q^(sum of squared conjugate-partition parts)
    times prod over the multiplicities m_t of the parts t of
    prod_{j=1}^{m_t} (1 - q^-j) = q^(-m_t(m_t+1)/2) prod_j (q^j - 1)."""
    total = 1
    for poly, lam in assignment:
        q = 1 << (poly.bit_length() - 1)
        mults = Counter(lam).values()
        e = (sum(c * c for c in _conjugate_partition(lam))
             - sum(m * (m + 1) // 2 for m in mults))
        total *= q ** e
        for m in mults:
            for j in range(1, m + 1):
                total *= q ** j - 1
    return total


@functools.lru_cache(maxsize=None)
def _gl_classes_cached(n: int) -> tuple[GlClassDescriptor, ...]:
    polys = irreducible_polys(n)
    gl_order = group_orders(n)[0]

    assignments: list[tuple[tuple[int, tuple[int, ...]], ...]] = []

    def rec(i, remaining, chosen):
        if remaining == 0:
            assignments.append(tuple(chosen))
            return
        if i == len(polys):
            return
        deg = polys[i].bit_length() - 1
        rec(i + 1, remaining, chosen)
        for weight in range(1, remaining // deg + 1):
            for lam in _partitions(weight):
                rec(i + 1, remaining - weight * deg,
                    chosen + [(polys[i], lam)])

    rec(0, n, [])
    out = []
    for assignment in sorted(assignments):
        cent = _centralizer_order(assignment)
        size, rem = divmod(gl_order, cent)
        if rem:
            raise ArithmeticError(
                f"centralizer {cent} does not divide |GL|={gl_order}")
        blocks = [_companion(_poly_pow(poly, e))
                  for poly, lam in assignment for e in lam]
        out.append(GlClassDescriptor(assignment, _direct_sum(blocks),
                                     size, cent))
    if sum(c.size for c in out) != gl_order:
        raise ArithmeticError("GL class sizes do not sum to the group order")
    return tuple(out)


def gl_classes(n: int) -> list[GlClassDescriptor]:
    """All conjugacy classes of GL(n,2): every assignment of partitions to
    irreducible polynomials with total degree-weighted size n."""
    if not 1 <= n <= 10:
        raise ValueError(f"n={n} out of supported range 1..10")
    return list(_gl_classes_cached(n))


# --- the fiber over one GL class -------------------------------------------
#
# Conjugating (A, b) by (C, d) with C in the centralizer of A gives
# (A, C b xor (A xor I) d): the linear part is untouched and the translation
# moves by C plus anything in Im(A xor I). So the classes over A are the
# orbits of the centralizer on V/Im(A xor I), each coset holding
# 2^rank(A xor I) translations.
#
# A xor I is invertible on every primary block except those of x+1, so only
# the companion blocks of (x+1)^t reach the quotient. They come first in the
# class rep (x+1 sorts first among the irreducibles), largest first, and
# each adds one quotient coordinate, spanned by the block's cyclic vector
# e_start. A centralizer element can add the coordinate of a block into the
# coordinate of any block of equal or smaller size, and acts as GL on the
# blocks of one size. So besides {0}, there is one orbit per distinct part t
# of the partition: the vectors that vanish on the blocks larger than t and
# not on every block of size t. With m_t blocks of size t, it holds
# (2^m_t - 1) 2^(blocks smaller than t) cosets.

@functools.lru_cache(maxsize=None)
def _affine_cells_cached(n: int) -> tuple[ConjCell, ...]:
    cells = []
    for cls in gl_classes(n):
        poly, lam = cls.assignment[0]
        if poly != 0b11:  # no x+1 blocks: A xor I is invertible
            lam = ()
        # rank(A xor I) = n - (number of x+1 blocks)
        coset = cls.size << (n - len(lam))
        cells.append(ConjCell(AffineElement(n, cls.rep, BitVector(n, 0)),
                              coset))
        start = above = 0
        for t, mult in sorted(Counter(lam).items(), reverse=True):
            above += mult
            orbit = ((1 << mult) - 1) << (len(lam) - above)
            cells.append(ConjCell(
                AffineElement(n, cls.rep, BitVector(n, 1 << start)),
                coset * orbit))
            start += t * mult
    total = sum(c.size for c in cells)
    if total != group_orders(n)[1]:
        raise RuntimeError(f"cell sizes sum to {total}, not |AGL({n},2)|")
    return tuple(cells)


def affine_cells(n: int) -> list[ConjCell]:
    """The conjugacy classes of AGL(n,2), one cell each, from the GL
    canonical forms and the closed-form orbits on each fiber."""
    if not 1 <= n <= 10:
        raise ValueError(f"n={n} out of supported range 1..10")
    return list(_affine_cells_cached(n))


# --- exhaustive small-n provider --------------------------------------------

def _agl_generators(n: int) -> list[AffineElement]:
    """Elements generating AGL(n,2): translation by e_1, and for n >= 2 the
    coordinate cycle and one transvection."""
    ident_rows = tuple(1 << i for i in range(n))
    gens = [(ident_rows, 1)]
    if n >= 2:
        cycle = tuple(1 << ((i - 1) % n) for i in range(n))
        trans = (0b11,) + ident_rows[1:]
        gens += [(cycle, 0), (trans, 0)]
    return [AffineElement(n, BitMatrix(n, n, rows), BitVector(n, b))
            for rows, b in gens]


@functools.lru_cache(maxsize=None)
def _exhaustive_cells_cached(n: int) -> tuple[ConjCell, ...]:
    # an element is its table of point images (to_permutation), 2^n bytes;
    # padded with the identity on 2^n..255 it is a bytes.translate table,
    # so a.translate(g + pad) is g o a
    order = group_orders(n)[1]
    size = 1 << n
    pad = bytes(range(size, 256))
    gens = []
    for g in _agl_generators(n):
        table = bytes(to_permutation(g).images)
        inv = bytearray(size)
        for x, y in enumerate(table):
            inv[y] = x
        gens.append((table + pad, bytes(inv)))

    # close the generators into the full group; the size check proves the
    # generating set is complete, which the class split below relies on
    ident = bytes(range(size))
    elements = {ident}
    queue = [ident]
    while queue:
        a = queue.pop()
        for g, _ in gens:
            c = a.translate(g)
            if c not in elements:
                elements.add(c)
                queue.append(c)
    if len(elements) != order:
        raise RuntimeError(
            f"generators produced {len(elements)} of {order} elements")

    # conjugating by a generating set reaches the whole conjugacy class;
    # ginv.translate(a + pad).translate(g) is g o a o g^-1; each class
    # found leaves the set, so what stays is not yet in a class
    cells = []
    for key in sorted(elements):
        if key not in elements:
            continue
        cls = {key}
        queue = [key]
        while queue:
            a = queue.pop() + pad
            for g, ginv in gens:
                c = ginv.translate(a).translate(g)
                if c not in cls:
                    cls.add(c)
                    queue.append(c)
        elements -= cls
        # key is the smallest table of its class; only the reps are decoded
        cells.append(ConjCell(from_permutation(Permutation(n, tuple(key))),
                              len(cls)))
    if sum(c.size for c in cells) != order:
        raise RuntimeError(
            f"class sizes sum to {sum(c.size for c in cells)}, not {order}")
    return tuple(cells)


def exhaustive_cells(n: int) -> list[ConjCell]:
    """True conjugacy classes of AGL(n,2) by full enumeration; n <= 4."""
    if not 1 <= n <= 4:
        raise ValueError(f"exhaustive provider supports n <= 4, got n={n}")
    return list(_exhaustive_cells_cached(n))


# --- cell files --------------------------------------------------------------

_HEADER_RE = re.compile(r"^rmclass-cells v1 n=(\d+) count=(\d+)$")
_CELL_RE = re.compile(r"^cell (\d+) size (\d+)$")


def export_cells(cells: list[ConjCell], path) -> None:
    if not cells:
        raise ValueError("refusing to export an empty decomposition")
    n = cells[0].rep.n
    lines = [f"rmclass-cells v1 n={n} count={len(cells)}"]
    for idx, c in enumerate(cells):
        if c.rep.n != n:
            raise ValueError("mixed n in cell list")
        lines.append(f"cell {idx} size {c.size}")
        lines.extend(c.rep.a.to_strings())
        lines.append(str(c.rep.b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def import_cells(path) -> list[ConjCell]:
    """Parse and validate a cell file: representatives must be invertible
    and sizes must sum to |AGL(n,2)|."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines:
        raise CellFormatError(f"{path}: empty cell file")
    head = _HEADER_RE.match(lines[0].strip())
    if not head:
        raise CellFormatError(f"{path}: bad header {lines[0]!r}")
    n, count = int(head.group(1)), int(head.group(2))
    if not 1 <= n <= 10:
        raise CellFormatError(f"{path}: unsupported n={n}")
    cells = []
    pos = 1
    for idx in range(count):
        if pos >= len(lines):
            raise CellFormatError(f"{path}: truncated at cell {idx}")
        m = _CELL_RE.match(lines[pos].strip())
        if not m or int(m.group(1)) != idx:
            raise CellFormatError(f"{path}: bad cell header {lines[pos]!r}")
        size = int(m.group(2))
        pos += 1
        if pos + n + 1 > len(lines):
            raise CellFormatError(f"{path}: truncated matrix in cell {idx}")
        rows = [ln.strip() for ln in lines[pos:pos + n]]
        bline = lines[pos + n].strip()
        pos += n + 1
        for ln in rows + [bline]:
            if len(ln) != n or set(ln) - {"0", "1"}:
                raise CellFormatError(f"{path}: bad 0/1 line {ln!r}")
        try:
            rep = AffineElement(
                n, BitMatrix.from_strings(rows),
                BitVector.from_entries(int(c) for c in bline))
        except SingularMatrixError:
            raise CellDecompositionError(
                f"{path}: singular linear part in cell {idx}") from None
        if size < 1:
            raise CellDecompositionError(f"{path}: cell {idx} has size {size}")
        cells.append(ConjCell(rep, size))
    if any(ln.strip() for ln in lines[pos:]):
        raise CellFormatError(f"{path}: trailing garbage after cell {count - 1}")
    total = sum(c.size for c in cells)
    if total != group_orders(n)[1]:
        raise CellDecompositionError(
            f"{path}: sizes sum to {total}, not |AGL({n},2)|")
    return cells
