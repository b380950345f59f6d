"""Cell decompositions of AGL(n,2) for the Burnside sum.

The counting engine takes any list of cells that partitions the group and
in which every member of a cell fixes the same number of vectors as the
cell's representative in every window. The cell sizes must sum to
|AGL(n,2)|. Four lists are built here:

- exhaustive_cells: walk the whole group (n <= 4 only) and split it into
  true conjugacy classes.
- affine_cells: parametrize GL(n,2) classes by rational canonical form,
  over the monic irreducibles of degree <= n, which are read off the
  GF(2^m) minimal-polynomial tables the merge below also uses (one table
  per degree m, built from a primitive root); then split each fiber of
  translations into its orbits under the conjugations that fix the linear
  part. The orbits follow from the partition of the x+1 blocks in closed
  form (see below), so the cells are exactly the conjugacy classes.
- rational_cells: first merge the GL class of each A with the classes of
  every power A^j, gcd(j, ord A) = 1; then the same fiber split runs once
  per merged group, with the class sizes summed. Each cell is the union of
  the conjugacy classes of the g^j, which generate the same cyclic subgroup
  as g and so fix the same vectors. The canonical counting path sums over
  this shorter list (790 cells against 1967 classes at n = 10), which it
  reads as rational_runs: one run per merged group, the zero coset of its
  leader and (size, translation) per cell, with no AffineElement per
  other cell.
- import_cells: read a decomposition computed elsewhere from a text file.

The cells of exhaustive_cells, affine_cells and the cell file format are
conjugacy classes: each cell's members are mutually conjugate.

Each call builds its list afresh (the cold n = 10 build takes well under a
tenth of a second); a caller that counts many times over one n passes the
list it built as cells=. Only the exhaustive group walk, the GF(2^m)
tables, the powers p^e and the centralizer factors of primary parts are
cached, read-only: one n = 4 walk takes over a second and small-n checks
count through it often (its representatives are decoded on every call),
each table serves every n >= m, and the powers and factors recur across
the classes of every n.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from pathlib import Path
from types import MappingProxyType

from .gf2 import BitMatrix, BitVector, SingularMatrixError, Value
from .group import (
    MAX_N,
    AffineElement,
    Permutation,
    element_from_text,
    from_permutation,
    group_orders,
    inverse,
    to_permutation,
)


class CellFormatError(ValueError):
    """Cell file does not parse."""


class CellDecompositionError(ValueError):
    """Cells parse but do not form a valid decomposition."""


class ConjCell(Value):
    """A cell of the group: one representative and the exact size. Every
    member fixes as many vectors as the representative in every window."""

    __slots__ = ("rep", "size")

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("cell size must be positive")


class GlClassDescriptor(Value):
    """A GL(n,2) conjugacy class in rational canonical form.

    assignment maps each monic irreducible polynomial (coefficient-packed
    int, bit i = coefficient of x^i; p(x) = x excluded) to the partition
    listing the exponents of its elementary divisors; pairs are sorted by
    (degree, coefficient bits). The property rep is the direct sum of the
    companion matrices of p^e, a BitMatrix, built on each read: a count
    reads only the reps that lead a rational group.
    """

    __slots__ = ("assignment", "size", "centralizer")

    @property
    def rep(self) -> BitMatrix:
        return _companion_sum([_poly_pow(poly, e)
                               for poly, lam in self.assignment for e in lam])


# --- polynomials over GF(2), packed as ints (bit i = coefficient of x^i) ---

def _poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


@functools.lru_cache(maxsize=None)
def _poly_pow(p: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = _poly_mul(r, p)
    return r


def irreducible_polys(max_degree: int) -> tuple[int, ...]:
    """All monic irreducibles of degree 1..max_degree except p(x) = x,
    sorted by (degree, coefficient bits): the values of the GF(2^m)
    minimal-polynomial tables (_min_polys) that the rational merge reads."""
    return tuple(p for deg in range(1, max_degree + 1)
                 for p in sorted(set(_min_polys(deg).values())))


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


def _companion_sum(polys: list[int]) -> BitMatrix:
    """The direct sum of the companion matrices of the monic polys, in
    order along the diagonal. Each block maps e_j to e_{j+1}, and its last
    column holds the low coefficients."""
    rows = []
    for poly in polys:
        off = len(rows)
        d = poly.bit_length() - 1
        for i in range(d):
            r = (1 << (off + i - 1)) if i else 0
            if (poly >> i) & 1:
                r |= 1 << (off + d - 1)
            rows.append(r)
    return BitMatrix(len(rows), len(rows), tuple(rows))


def _centralizer_order(assignment) -> int:
    """|{X in GL : X commutes with the class rep}|: the product of the
    factors of its primary parts, one per polynomial."""
    return math.prod(_primary_centralizer(poly.bit_length() - 1, lam)
                     for poly, lam in assignment)


# cached: the 1002 classes of GL(10,2) have 2,106 primary parts, 143 distinct
@functools.lru_cache(maxsize=None)
def _primary_centralizer(degree: int, lam: tuple[int, ...]) -> int:
    """The centralizer factor of the primary part p^lam, deg p = degree,
    from the partition data: q^(sum of squared conjugate-partition parts)
    times prod over the multiplicities m_t of the parts t of
    prod_{j=1}^{m_t} (1 - q^-j) = q^(-m_t(m_t+1)/2) prod_j (q^j - 1),
    with q = 2^degree."""
    q = 1 << degree
    mults = Counter(lam).values()
    e = (sum(c * c for c in _conjugate_partition(lam))
         - sum(m * (m + 1) // 2 for m in mults))
    total = q ** e
    for m in mults:
        for j in range(1, m + 1):
            total *= q ** j - 1
    return total


def gl_classes(n: int) -> list[GlClassDescriptor]:
    """All conjugacy classes of GL(n,2): every assignment of partitions to
    irreducible polynomials with total degree-weighted size n."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n={n} out of supported range 1..{MAX_N}")
    polys = irreducible_polys(n)
    gl_order = group_orders(n)[0]

    assignments: list[tuple[tuple[int, tuple[int, ...]], ...]] = []

    def rec(i, remaining, chosen):
        if remaining == 0:
            assignments.append(tuple(chosen))
            return
        for j in range(i, len(polys)):
            deg = polys[j].bit_length() - 1
            if deg > remaining:
                return  # polys is sorted by degree: no later one fits
            for weight in range(1, remaining // deg + 1):
                for lam in _partitions(weight):
                    rec(j + 1, remaining - weight * deg,
                        chosen + [(polys[j], lam)])

    rec(0, n, [])
    out = []
    for assignment in sorted(assignments):
        cent = _centralizer_order(assignment)
        size, rem = divmod(gl_order, cent)
        if rem:
            raise ArithmeticError(
                f"centralizer {cent} does not divide |GL|={gl_order}")
        out.append(GlClassDescriptor(assignment, size, cent))
    if sum(c.size for c in out) != gl_order:
        raise ArithmeticError("GL class sizes do not sum to the group order")
    return out


# --- rational groups: the GL classes of g^j, gcd(j, ord g) = 1, merged -----
#
# g and g^j generate the same cyclic subgroup, so they fix the same vectors
# in every window, and the Burnside sum may run over the union of their
# classes with the sizes added. On a GL class, an odd j prime to the order
# of A's semisimple part keeps every partition and sends each irreducible p
# to the minimal polynomial of alpha^j, alpha a root of p. Write the roots
# of p as gamma^e for a root gamma of a primitive polynomial of p's degree
# m; then j multiplies e mod 2^m - 1. On the affine part, A^j xor I is
# (A xor I) times a unit, and the translation of g^j is
# (I + A + ... + A^(j-1)) b = j b = b mod Im(A xor I), because A is the
# identity on V/Im(A xor I); so the fiber orbit index t carries over, and
# the fiber split below runs once per merged group, with the sizes summed.
#
# On n variables every semisimple order divides L(n) = lcm(2^m - 1,
# m <= n), so any odd power prime to L(n) is sound, and _powers(n) takes
# the first eight (13, 19, 23, 29, 37, 41, 43, 47 at n = 10). The merge is
# the orbit partition under the group they generate; a brute loop over
# every j gives the same cells. A missing generator only merges less.
def _powers(n: int) -> tuple[int, ...]:
    lcm = math.lcm(*((1 << m) - 1 for m in range(1, n + 1)))
    return tuple(itertools.islice(
        (r for r in itertools.count(3, 2) if math.gcd(r, lcm) == 1), 8))


@functools.lru_cache(maxsize=None)
def _min_polys(m: int) -> MappingProxyType[int, int]:
    """{e: minimal polynomial of gamma^e} for every e in 0..2^m - 2 whose
    conjugates gamma^(e 2^i) are m distinct roots, with gamma = x in
    GF(2)[x]/P for the first primitive P of degree m. Its values are
    exactly the monic irreducibles of degree m other than x. The table is
    shared by every caller, so it is read-only."""
    order = (1 << m) - 1
    # x has 2^m - 1 distinct powers mod P only if every nonzero residue is
    # a unit, so only if P is primitive, and then P is irreducible. x is a
    # unit mod an odd P, so its powers repeat first at 1: a walk that
    # meets 1 again before 2^m - 1 steps rejects P
    for prim in range((1 << m) | 1, 1 << (m + 1), 2):
        power = [1]  # power[e] = gamma^e, packed like the polynomials
        while len(power) < order:
            x = power[-1] << 1
            x = x ^ prim if x >> m else x
            if x == 1:
                break
            power.append(x)
        else:
            break
    log = {v: e for e, v in enumerate(power)}
    out = {}
    for e in range(order):
        if e in out:
            continue
        coset = {(e << i) % order for i in range(m)}
        if len(coset) != m:
            continue  # gamma^e lies in a proper subfield
        coeffs = [1]  # low to high, over GF(2^m): prod of (X + gamma^c)
        for c in coset:
            nxt = [0] + coeffs
            for i, a in enumerate(coeffs):
                if a:
                    nxt[i] ^= power[(log[a] + c) % order]
            coeffs = nxt
        if any(a > 1 for a in coeffs):
            raise RuntimeError(
                f"minimal polynomial of gamma^{e} is not over GF(2)")
        out.update(dict.fromkeys(coset,
                                 sum(a << i for i, a in enumerate(coeffs))))
    return MappingProxyType(out)


def _rational_groups(n: int) -> list[tuple[GlClassDescriptor, ...]]:
    """The GL(n,2) classes of A^j for every j prime to ord(A), one tuple
    per cyclic subgroup, each led by its first class, in that order."""
    powers = _powers(n)
    classes = gl_classes(n)
    # an assignment names each polynomial once, so its set of pairs is a key
    index = {frozenset(cls.assignment): i for i, cls in enumerate(classes)}
    # p -> the minimal polynomials of alpha^r, r in powers, p(alpha) = 0;
    # any root of p gives the same ones, so the first exponent serves
    power_of = {}
    for m in range(1, n + 1):
        by_exp = _min_polys(m)
        order = (1 << m) - 1
        for e, p in by_exp.items():
            if p not in power_of:
                power_of[p] = tuple(by_exp[e * r % order] for r in powers)

    # walk each orbit: the loop over group also visits what it appends
    placed = set()
    groups = []
    for i in range(len(classes)):
        if i in placed:
            continue
        placed.add(i)
        group = [i]
        for j in group:
            polys, lams = zip(*classes[j].assignment)
            for r, images in zip(powers,
                                 zip(*(power_of[p] for p in polys))):
                if images == polys:
                    continue  # A^r lies in A's own class
                k = index.get(frozenset(zip(images, lams)))
                if k is None:
                    raise RuntimeError(f"power {r} of GL class {j}: no class")
                if k not in placed:
                    placed.add(k)
                    group.append(k)
        groups.append(tuple(classes[j] for j in group))
    return groups


# --- the fiber over one group of GL classes --------------------------------
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

def _x1_partition(cls: GlClassDescriptor) -> tuple[int, ...]:
    """The sizes of the companion blocks of (x+1)^t in the class rep."""
    poly, lam = cls.assignment[0]
    return lam if poly == 0b11 else ()


def _fiber_runs(n: int, groups) -> list[tuple[AffineElement, list]]:
    """The cells over each group of GL classes, one run per group: the
    zero coset (A, 0) of the rep A of its first class, an AffineElement,
    so A is checked invertible once per run, and (size, b) per cell, the
    zero coset first, then one cell per distinct x+1 block size t, largest
    first. The sizes count every class of the group."""
    runs = []
    total = 0
    origin = BitVector(n, 0)
    for group in groups:
        lam = _x1_partition(group[0])
        if any(_x1_partition(cls) != lam for cls in group):
            raise RuntimeError("merged GL classes have different x+1 "
                               f"partitions: {group[0].assignment}")
        # rank(A xor I) = n - (number of x+1 blocks)
        coset = sum(cls.size for cls in group) << (n - len(lam))
        cells = [(coset, 0)]
        start = above = 0
        for t, mult in sorted(Counter(lam).items(), reverse=True):
            above += mult
            orbit = ((1 << mult) - 1) << (len(lam) - above)
            cells.append((coset * orbit, 1 << start))
            start += t * mult
        total += sum(size for size, _ in cells)
        runs.append((AffineElement(n, group[0].rep, origin), cells))
    if total != group_orders(n)[1]:
        raise RuntimeError(f"cell sizes sum to {total}, not |AGL({n},2)|")
    return runs


def _flat(n: int, runs) -> list[ConjCell]:
    """The cells of the runs, in order: the zero coset is the run's own
    element, every other cell has its own AffineElement."""
    return [ConjCell(AffineElement(n, zero.a, BitVector(n, b)) if b
                     else zero, size)
            for zero, cells in runs for size, b in cells]


def affine_cells(n: int) -> list[ConjCell]:
    """The conjugacy classes of AGL(n,2), one cell each, from the GL
    canonical forms and the closed-form orbits on each fiber."""
    return _flat(n, _fiber_runs(n, [(cls,) for cls in gl_classes(n)]))


def rational_runs(n: int) -> list[tuple[AffineElement, list]]:
    """The rational cells of n as the counting engine reads them, one run
    per rational group: its zero coset and (size, translation bits) per
    cell (_fiber_runs). rational_cells is these runs, flattened."""
    return _fiber_runs(n, _rational_groups(n))


def rational_cells(n: int) -> list[ConjCell]:
    """The rational cells of AGL(n,2): each is the union of the conjugacy
    classes of g^j for every j prime to ord(g), with the class sizes added.
    Every member of a cell generates a cyclic subgroup conjugate to that of
    the representative, so all fix the same number of vectors in every
    window; the counting engine sums over these cells."""
    return _flat(n, rational_runs(n))


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


# cached: each n = 4 walk takes over a second
@functools.lru_cache(maxsize=None)
def _point_table_classes(n: int) -> tuple[bytes, ...]:
    """The conjugacy classes of AGL(n,2) by full enumeration, each element
    as its table of point images (to_permutation), 2^n bytes. Each class is
    one bytes of its tables packed end to end, its smallest table first;
    the classes are in increasing order of that table. The result is shared
    by every caller, and a tuple of bytes is read-only."""
    # padded with the identity on 2^n..255 a table is a bytes.translate
    # table, so a.translate(g + pad) is g o a
    order = group_orders(n)[1]
    size = 1 << n
    pad = bytes(range(size, 256))
    gens = [(bytes(to_permutation(g).images) + pad,
             bytes(to_permutation(inverse(g)).images))
            for g in _agl_generators(n)]

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
    classes = []
    for key in sorted(elements):
        if key not in elements:
            continue
        cls = {key}
        members = [key]  # the loop also visits what it appends
        for a in members:
            a += pad
            for g, ginv in gens:
                c = ginv.translate(a).translate(g)
                if c not in cls:
                    cls.add(c)
                    members.append(c)
        elements -= cls
        classes.append(b"".join(members))
    return tuple(classes)


def exhaustive_cells(n: int) -> list[ConjCell]:
    """True conjugacy classes of AGL(n,2) by full enumeration; n <= 4."""
    if not 1 <= n <= 4:
        raise ValueError(f"exhaustive provider supports n <= 4, got n={n}")
    order = group_orders(n)[1]
    size = 1 << n
    # only the reps, each class's first table, are decoded
    cells = [ConjCell(from_permutation(Permutation(n, tuple(cls[:size]))),
                      len(cls) // size)
             for cls in _point_table_classes(n)]
    if sum(c.size for c in cells) != order:
        raise RuntimeError(
            f"class sizes sum to {sum(c.size for c in cells)}, not {order}")
    return cells


# --- cell files --------------------------------------------------------------

_HEADER_RE = re.compile(r"^rmclass-cells v1 n=(\d+) count=(\d+)$")
_CELL_RE = re.compile(r"^cell (\d+) size (\d+)$")


def export_cells(cells: list[ConjCell], path) -> None:
    """Write the header, then per cell its "cell <index> size <size>" line
    and str(rep) without its n line: the element text owns the block."""
    if not cells:
        raise ValueError("refusing to export an empty decomposition")
    n = cells[0].rep.n
    lines = [f"rmclass-cells v1 n={n} count={len(cells)}"]
    for idx, c in enumerate(cells):
        if c.rep.n != n:
            raise ValueError("mixed n in cell list")
        lines.append(f"cell {idx} size {c.size}")
        lines.append(str(c.rep).partition("\n")[2])
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def import_cells(path) -> list[ConjCell]:
    """Read what export_cells writes (trailing blank lines pass), each rep
    by element_from_text. Raises CellFormatError if the file does not
    parse, and CellDecompositionError for a singular rep, a size below 1
    or sizes that do not sum to |AGL(n,2)|; both name the cell if any."""
    if path is None:
        raise ValueError("the import provider requires a cell file")
    # rstrip drops the blank lines after the last cell, not those before
    lines = Path(path).read_text(encoding="ascii").rstrip().splitlines()
    if not lines:
        raise CellFormatError(f"{path}: empty cell file")
    head = _HEADER_RE.match(lines[0].strip())
    if not head:
        raise CellFormatError(f"{path}: bad header {lines[0]!r}")
    n, count = int(head.group(1)), int(head.group(2))
    if not 1 <= n <= MAX_N:
        raise CellFormatError(f"{path}: unsupported n={n}")
    if len(lines) != 1 + count * (n + 2):
        raise CellFormatError(f"{path}: {len(lines)} lines, expected "
                              f"{1 + count * (n + 2)} for {count} cells")
    cells = []
    for idx, start in enumerate(range(1, len(lines), n + 2)):
        m = _CELL_RE.match(lines[start].strip())
        if not m or int(m.group(1)) != idx:
            raise CellFormatError(f"{path}: bad first line of cell {idx}")
        try:
            rep = element_from_text("\n".join(
                [str(n), *lines[start + 1:start + n + 2]]))
        except SingularMatrixError:
            raise CellDecompositionError(
                f"{path}: singular linear part in cell {idx}") from None
        except ValueError as e:
            raise CellFormatError(f"{path}: cell {idx}: {e}") from None
        size = int(m.group(2))
        if size < 1:
            raise CellDecompositionError(f"{path}: cell {idx} has size {size}")
        cells.append(ConjCell(rep, size))
    total = sum(c.size for c in cells)
    if total != group_orders(n)[1]:
        raise CellDecompositionError(
            f"{path}: sizes sum to {total}, not |AGL({n},2)|")
    return cells
