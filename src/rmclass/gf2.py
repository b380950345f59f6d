"""Dense linear algebra over GF(2).

Vectors and matrices are immutable values; every operation returns a new
object. Storage is bit-packed: a row is a single Python int with bit j
holding column j, so a row operation is one word-parallel xor no matter how
wide the matrix is. Rank/elimination work on copies, never on the inputs.

Value, here in the bottom module, is the base of every value class of the
package. A subclass names its fields in __slots__, in constructor order,
may give trailing ones defaults in _defaults, and may check them in
__post_init__. The base binds positional and keyword arguments and gives
equality by type and fields, a hash and a Name(field=value, ...) repr,
pickling through the constructor (which checks again) and AttributeError
on assignment or deletion. It generates no code.
"""

from __future__ import annotations

from typing import Iterable, Sequence

_set_field = object.__setattr__


class Value:
    """Immutable value with the fields named in its class's __slots__."""

    __slots__ = ()
    _defaults: dict = {}  # field -> its value when no argument gives one

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args))
            clash = values.keys() & kwargs.keys()
            values = {**self._defaults, **values, **kwargs}
            if (len(args) > len(fields) or clash
                    or values.keys() != set(fields)):
                raise TypeError(f"{type(self).__qualname__}() takes the "
                                f"fields {', '.join(fields)}, got {len(args)} "
                                f"positional and {sorted(kwargs)} by keyword")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    # the field tuple alone: one of ints hashes alike in every run, so a
    # set of such values iterates in the same order each time
    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SingularMatrixError(ValueError):
    """A matrix that had to be invertible is not."""


class BitVector(Value):
    """Length-n vector over GF(2), packed into an int (bit i = entry i)."""

    __slots__ = ("n", "bits")
    _defaults = {"bits": 0}

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits out of range for length {self.n}")

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "BitVector":
        """The vector whose entry i is the i-th of entries. Each must equal
        0 or 1 (bools pass); any other entry raises ValueError."""
        bits = n = 0
        for e in entries:
            if e not in (0, 1):
                raise ValueError(f"entry {e!r} is not 0 or 1")
            bits |= e << n
            n += 1
        return cls(n, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.n

    def entries(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.entries())


class BitMatrix(Value):
    """rows x cols matrix over GF(2); row i packed as int (bit j = entry i,j)."""

    __slots__ = ("rows", "cols", "row_bits")

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError(f"row bits out of range for width {self.cols}")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]], cols: int | None = None) -> "BitMatrix":
        """Row i packs rows[i] by BitVector.from_entries, so only 0 and 1
        pass. Every row has cols entries (default: as many as the first)."""
        packed = [BitVector.from_entries(row) for row in rows]
        if cols is None:
            cols = packed[0].n if packed else 0
        if any(v.n != cols for v in packed):
            raise ValueError("ragged rows")
        return cls(len(packed), cols, tuple(v.bits for v in packed))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        """Rows as '0'/'1' strings, e.g. ["110", "010", "001"]."""
        return cls.from_rows([[int(c) for c in r] for r in rows])

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_bits[i])

    def column(self, j: int) -> BitVector:
        bits = 0
        for i, r in enumerate(self.row_bits):
            if (r >> j) & 1:
                bits |= 1 << i
        return BitVector(self.rows, bits)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(
            self.rows, self.cols,
            tuple(a ^ b for a, b in zip(self.row_bits, other.row_bits)),
        )

    def to_strings(self) -> list[str]:
        return [str(self.row(i)) for i in range(self.rows)]

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) product: row i of the result xors together the rows of b picked
    by the set bits of row i of a."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    out = []
    brows = b.row_bits
    for rbits in a.row_bits:
        acc = 0
        r = rbits
        while r:
            t = r & -r
            acc ^= brows[t.bit_length() - 1]
            r ^= t
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    if m.cols != v.n:
        raise ValueError("dimension mismatch")
    bits = 0
    for i, rbits in enumerate(m.row_bits):
        if (rbits & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVector(m.rows, bits)


def rank_of_rows(rows: Iterable[int], pivots: list[int],
                 bands: Sequence[int] = (-1,),
                 grown: list[int] | None = None) -> int:
    """Rank of a set of bit-packed rows. Consumes nothing; rows are ints.

    This is the one elimination loop of the package: each row is reduced by
    the pivot rows and, if anything is left, kept as a new pivot. It
    extends the pivot list (entry b = the row whose pivot is bit b, 0 for
    none, one entry per bit a pivot can take) in place and returns how
    much the rank grew, so an echelon form can be built up one batch of
    rows at a time.

    bands are disjoint bit masks, most significant first; bits outside
    every band are ignored. A row's pivot is its highest set bit in the
    first band it meets, and a row with nothing left inside the bands adds
    no rank; the default, one band of all bits, makes the pivot the
    highest set bit. A pivot list must be extended with the same band
    order each time (a prefix may be dropped where no row reaches it).
    Given grown, a list as long as bands, grown[j] is raised by one for
    each new pivot in band j."""
    r = 0
    for row in rows:
        # j = the index of band; a counter, as an enumerate per row slows
        # the rank phase by about a tenth
        j = 0
        for band in bands:
            part = row & band
            while part:
                bit = part.bit_length() - 1
                p = pivots[bit]
                if not p:
                    break
                row ^= p
                part = row & band
            if part:
                pivots[bit] = row
                r += 1
                if grown is not None:
                    grown[j] += 1
                break
            j += 1
    return r


def rank(m: BitMatrix) -> int:
    return rank_of_rows(m.row_bits, [0] * m.cols)


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse by reducing [m | I] (m in the high bits) to [I | m^-1];
    raises SingularMatrixError below full rank."""
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    rows = _rref_rows([(r << n) | (1 << i) for i, r in enumerate(m.row_bits)],
                      2 * n)
    # one row per pivot, pivots descending; a pivot in the low half means
    # m has a zero combination of rows
    if any(r >> n == 0 for r in rows):
        raise SingularMatrixError(f"rank < {n}")
    low = (1 << n) - 1
    return BitMatrix(n, n, tuple(r & low for r in reversed(rows)))


def _rref_rows(rows: list[int], width: int) -> list[int]:
    """Reduced row echelon form of bit-packed rows of the given width
    (pivot = highest set bit), returned sorted by pivot descending.
    Deterministic for any input order."""
    pivots = [0] * width
    rank_of_rows(rows, pivots)
    # clear above-pivot bits, from the lowest pivot up
    for b, row in enumerate(pivots):
        if row:
            for b2 in range(b + 1, width):
                if (pivots[b2] >> b) & 1:
                    pivots[b2] ^= row
    return [row for row in reversed(pivots) if row]
