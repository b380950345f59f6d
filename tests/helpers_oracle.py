"""Self-contained brute-force reference computations.

Deliberately independent of the package internals: a point of GF(2)^n is
the index built with coordinate 1 as the high bit, a Boolean function is
a truth-table int of 2^n bits (bit i = value at point i), and group
elements are permutation tuples grown by closure from a few generators.
point_fixdims alone takes a package element, and only its matrix-vector
product; it indexes points as the monomial masks do, bit j = coordinate
j + 1, so that one subset transform pairs the two.
"""

import functools
import itertools

from rmclass.gf2 import BitVector, mat_vec


def agl_order(n: int) -> int:
    gl = 1
    for i in range(n):
        gl *= (1 << n) - (1 << i)
    return (1 << n) * gl


def agl_generators(n: int) -> list[tuple[int, ...]]:
    """Permutations of {0..2^n-1} that generate the affine group."""
    size = 1 << n
    # translation by the first unit vector
    gens = [tuple(i ^ (size >> 1) for i in range(size))]
    if n >= 2:
        # cyclic coordinate rotation and the transvection x1 += x2
        gens.append(tuple(((i << 1) | (i >> (n - 1))) & (size - 1)
                          for i in range(size)))
        gens.append(tuple(i ^ (((i >> (n - 2)) & 1) << (n - 1))
                          for i in range(size)))
    return gens


@functools.lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """Every permutation of {0..2^n-1} induced by an invertible affine map,
    found by closure and checked against the group order."""
    size = 1 << n
    gens = agl_generators(n)
    ident = tuple(range(size))
    seen = {ident}
    frontier = [ident]
    while frontier:
        step = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(size))
                if q not in seen:
                    seen.add(q)
                    step.append(q)
        frontier = step
    assert len(seen) == agl_order(n)
    return tuple(sorted(seen))


def subset_transform(bits: int, n: int) -> int:
    """GF(2) zeta transform over the subset lattice of point indices.
    Self-inverse; maps truth table to ANF coefficient table and back."""
    for t in range(n):
        step = 1 << t
        for i in range(1 << n):
            if i & step and (bits >> (i ^ step)) & 1:
                bits ^= 1 << i
    return bits


def window_masks(n: int, s: int, k: int) -> list[int]:
    return [m for m in range(1 << n) if k < m.bit_count() <= s]


def brute_class_count(n: int, s: int, k: int) -> int:
    """Orbits of degree-(k, s] coefficient patterns under composition with
    every affine permutation, reducing modulo the degree-<= k part."""
    size = 1 << n
    masks = window_masks(n, s, k)
    keep = 0
    for m in masks:
        keep |= 1 << m
    high = 0
    for m in range(size):
        if m.bit_count() > s:
            high |= 1 << m
    perms = all_perms(n)
    seen = set()
    orbits = 0
    for picks in itertools.product((0, 1), repeat=len(masks)):
        coeffs = 0
        for bit, m in zip(picks, masks):
            if bit:
                coeffs |= 1 << m
        if coeffs in seen:
            continue
        orbits += 1
        seen.add(coeffs)
        stack = [coeffs]
        while stack:
            tt = subset_transform(stack.pop(), n)
            for p in perms:
                moved = 0
                for i in range(size):
                    if (tt >> p[i]) & 1:
                        moved |= 1 << i
                full = subset_transform(moved, n)
                # composition cannot raise the degree
                assert full & high == 0
                image = full & keep
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return orbits


def window_matrix(perm, n: int, masks) -> list[int]:
    """Columns of f -> f o perm on the window spanned by masks, modulo the
    monomials below it: column j is the image of monomial masks[j], with
    bit i the coefficient of masks[i]. Built on truth tables, as in
    point_fixdims."""
    size = 1 << n
    pos = {m: i for i, m in enumerate(masks)}
    top = max(m.bit_count() for m in masks)
    cols = []
    for u in masks:
        table = subset_transform(1 << u, n)
        composed = 0
        for x in range(size):
            composed |= (table >> perm[x] & 1) << x
        anf = subset_transform(composed, n)
        # composition cannot raise the degree
        assert all(m.bit_count() <= top for m in range(size) if anf >> m & 1)
        cols.append(sum(1 << pos[m] for m in pos if anf >> m & 1))
    return cols


def byte_table_map(cols: list[int]):
    """v -> the xor of cols[i] over the set bits i of v, one lookup per
    byte of v in a table of the xors of that byte's columns."""
    tables = []
    for lo in range(0, len(cols), 8):
        table = [0]
        for c in cols[lo:lo + 8]:
            table += [x ^ c for x in table]
        tables.append(table)

    def apply(v: int) -> int:
        out = 0
        for table in tables:
            out ^= table[v & 255]
            v >>= 8
        return out

    return apply


def orbit_count(n: int, s: int, k: int) -> int:
    """Orbits of f -> f o g on the coefficient vectors of the window
    (k, s], as the connected components (union-find) of the graph that
    joins each vector to its image under each generator: no Burnside
    sum, no cell list and no package code."""
    masks = window_masks(n, s, k)
    maps = [byte_table_map(window_matrix(g, n, masks))
            for g in agl_generators(n)]
    parent = list(range(1 << len(masks)))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    orbits = len(parent)
    for v in range(len(parent)):
        for apply in maps:
            a, b = root(v), root(apply(v))
            if a != b:
                parent[a] = b
                orbits -= 1
    return orbits


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of ints read as bit vectors, by highest-bit pivots."""
    basis = {}  # highest bit -> vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def point_fixdims(g, pairs) -> list[int]:
    """d - rank(tau_g xor I) on each window (k, s] of pairs, from the map
    x -> Ax xor b on the points: the image of monomial u is its truth
    table composed with that map and transformed back to an ANF, so no
    substitution of affine forms is involved."""
    n = g.n
    size = 1 << n
    point = [mat_vec(g.a, BitVector(n, x)).bits ^ g.b.bits
             for x in range(size)]
    moved = []
    for u in range(size):
        table = subset_transform(1 << u, n)
        composed = 0
        for x in range(size):
            composed |= (table >> point[x] & 1) << x
        moved.append(subset_transform(composed, n) ^ 1 << u)
    out = []
    for k, s in pairs:
        masks = window_masks(n, s, k)
        keep = sum(1 << u for u in masks)
        out.append(len(masks) - gf2_rank(moved[u] & keep for u in masks))
    return out


def valid_pairs(n: int) -> list[tuple[int, int]]:
    return [(k, s) for s in range(n + 1) for k in range(-1, s)]


# brute_class_count output for every valid pair, frozen so the cheap unit
# tests need not rerun the n=3 sweep (the acceptance suite reruns it live)
FROZEN_COUNTS = {
    1: {(-1, 0): 2, (-1, 1): 3, (0, 1): 2},
    2: {(-1, 0): 2, (-1, 1): 3, (-1, 2): 5, (0, 1): 2, (0, 2): 3, (1, 2): 2},
    3: {(-1, 0): 2, (-1, 1): 3, (-1, 2): 6, (-1, 3): 10, (0, 1): 2,
        (0, 2): 4, (0, 3): 6, (1, 2): 2, (1, 3): 3, (2, 3): 2},
}
