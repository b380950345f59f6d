"""Sampled orbits of the centralizer on a fiber, as a test oracle.

Conjugating (A, b) by (C, d) with C invertible and commuting with A gives
(A, C b xor (A xor I) d). So the orbit of b's coset in V/Im(A xor I) under
any set of such C lies inside one conjugacy class of AGL(n,2), whichever
C are drawn: a sampled orbit is always contained in a true orbit. The walk
below draws seeded random members of the commutant, keeps the invertible
ones and closes each coset under them.
"""

import random

from rmclass.gf2 import BitMatrix, identity, rank, rank_of_rows


def _flat(m: BitMatrix) -> int:
    acc = 0
    for i, r in enumerate(m.row_bits):
        acc |= r << (i * m.cols)
    return acc


def _rows(flat: int, n: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((flat >> (i * n)) & mask for i in range(n))


def _mat_vec(rows: tuple[int, ...], v: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def solve_commutant(a: BitMatrix) -> list[BitMatrix]:
    """Basis of the commutant {X : XA = AX}: the kernel of the linear map
    X -> XA xor AX on the n^2-dimensional space of matrices (entry (i,j) is
    bit i*n+j). Each unit matrix E_ij is eliminated as its image, shifted
    above n^2 bits, tagged with its own bit; a pivot row left below n^2
    bits has a zero image, and there are n^2 - rank of them."""
    if not a.is_square():
        raise ValueError("commutant of non-square matrix")
    n = a.rows
    size = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            # row i of E_ij A is row j of A; column j of A E_ij is
            # column i of A
            image = a.row_bits[j] << (i * n)
            for r in range(n):
                if (a.row_bits[r] >> i) & 1:
                    image ^= 1 << (r * n + j)
            rows.append((image << size) | (1 << (i * n + j)))
    pivots = [0] * (2 * size)
    rank_of_rows(rows, pivots)
    return [BitMatrix(n, n, _rows(row, n)) for row in pivots[:size] if row]


def commutant_units(a: BitMatrix, rng: random.Random,
                    budget: int | None = None) -> list[tuple[int, ...]]:
    """Row tuples of invertible members of the commutant of a: the
    identity, each basis matrix and its identity offset when invertible,
    plus `budget` (default 4 n^2) random combinations of the basis."""
    n = a.rows
    if budget is None:
        budget = 4 * n * n
    basis = [_flat(m) for m in solve_commutant(a)]
    ident = _flat(identity(n))
    candidates = [ident] + basis + [f ^ ident for f in basis]
    for _ in range(budget):
        combo = rng.getrandbits(len(basis))
        acc = 0
        for i, f in enumerate(basis):
            if (combo >> i) & 1:
                acc ^= f
        candidates.append(acc)
    units = set()
    for flat in candidates:
        if flat and rank(BitMatrix(n, n, _rows(flat, n))) == n:
            units.add(_rows(flat, n))
    return sorted(units)


def coset_reducer(a: BitMatrix):
    """b -> the canonical member of b xor Im(a xor I), the one with every
    pivot bit of an echelon basis of the columns clear. A pivot row has no
    bit above its pivot, so clearing pivots from the highest down never
    sets one already cleared."""
    m = a ^ identity(a.rows)
    pivots = [0] * m.rows
    rank_of_rows([m.column(j).bits for j in range(m.cols)], pivots)
    im_rows = [row for row in reversed(pivots) if row]

    def reduce(b: int) -> int:
        for row in im_rows:
            if (b >> (row.bit_length() - 1)) & 1:
                b ^= row
        return b

    return reduce


def sampled_fiber_orbits(a: BitMatrix, rng: random.Random) -> list[frozenset]:
    """Orbits of sampled commutant units on V/Im(a xor I), each a set of
    canonical coset members."""
    n = a.rows
    reduce = coset_reducer(a)
    units = commutant_units(a, rng)
    cosets = sorted({reduce(b) for b in range(1 << n)})
    seen = set()
    orbits = []
    for start in cosets:
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            b = queue.pop()
            for rows in units:
                nb = reduce(_mat_vec(rows, b))
                if nb not in orbit:
                    orbit.add(nb)
                    queue.append(nb)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits
