"""Self-contained brute-force reference computations.

Deliberately independent of the package internals: a point of GF(2)^n is
the index built with coordinate 1 as the high bit, a Boolean function is
a truth-table int of 2^n bits (bit i = value at point i), and group
elements are permutation tuples grown by closure from a few generators.
point_fixdims and invariant_fixdims alone take a package element:
point_fixdims uses only its matrix-vector product, invariant_fixdims
only its row and translation bits. Both index points as the monomial
masks do, bit j = coordinate j + 1, so that one subset transform pairs
the two.
"""

import functools
import itertools
from math import gcd

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


@functools.lru_cache(maxsize=None)
def _graded_layout(n: int):
    """The monomials of n variables in graded order, by degree and then
    mask: the degree at each place, and up[x], the graded bit mask of the
    monomials u >= x (u & x == x), which is the ANF of the indicator of
    point x (the product of y_i over i in x and of y_i + 1 over the
    rest)."""
    order = sorted(range(1 << n), key=lambda u: (u.bit_count(), u))
    place = {u: p for p, u in enumerate(order)}
    up = [sum(1 << place[u] for u in order if u & x == x)
          for x in range(1 << n)]
    return [u.bit_count() for u in order], up


def invariant_fixdims(g, pairs) -> list[int]:
    """d - rank(tau_g xor I) on each window (k, s] of pairs, through the
    invariants of g's odd-order part, from the point map x -> Ax xor b
    alone: no substitution, no monomial images and no peel.

    With t the 2-part of ord(g), s = g^t has odd order, so taking
    s-invariants is exact: the fixed vectors of s on R(s')/R(k') are
    V_s'/V_k', where V_i holds the functions of degree <= i constant on
    every s-cycle of points. Fix(g) lies in Fix(s), and g permutes the
    s-cycles, so fixdim(k', s') is the fixed dimension of g on
    V_s'/V_k'. A g-cycle of length L splits into gcd(L, t) s-cycles,
    point i going to s-cycle i mod gcd(L, t), and g moves s-cycle j to
    j + 1. The indicators of the s-cycles span V; one elimination with
    graded pivots (the highest monomial in graded order) gives a basis
    adapted to degree, each vector w at the level of its pivot's degree,
    carrying (g - 1)w beside it (here for g^-1, which fixes the same
    vectors). Then, as in the engine, the (g - 1)w are eliminated level
    by level, and fixdim(k', s') = #(levels in (k', s']) - #(pivots of
    degree in (k', s'] once the levels <= s' are in)."""
    n = g.n
    degree_at, up = _graded_layout(n)
    rows_a = g.a.row_bits
    point = [sum(((row & x).bit_count() & 1) << i
                 for i, row in enumerate(rows_a)) ^ g.b.bits
             for x in range(1 << n)]
    seen = [False] * (1 << n)
    cycles = []
    for x in range(1 << n):
        cycle = []
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = point[x]
        if cycle:
            cycles.append(cycle)
    order = 1
    for cycle in cycles:
        order = order * len(cycle) // gcd(order, len(cycle))
    t = order & -order
    basis = {}  # pivot place -> (w, (g - 1) w)
    for cycle in cycles:
        c = gcd(len(cycle), t)
        anfs = [0] * c
        for i, x in enumerate(cycle):
            anfs[i % c] ^= up[x]
        for j in range(c):
            w, dw = anfs[j], anfs[(j + 1) % c] ^ anfs[j]
            while w:  # the indicators are independent: w never reaches 0
                p = w.bit_length() - 1
                if p not in basis:
                    basis[p] = (w, dw)
                    break
                w ^= basis[p][0]
                dw ^= basis[p][1]
    levels = [0] * (n + 1)
    by_level = [[] for _ in range(n + 1)]
    for p, (_, dw) in basis.items():
        levels[degree_at[p]] += 1
        by_level[degree_at[p]].append(dw)
    pivots = {}  # pivot place -> row
    per_degree = [0] * (n + 1)
    snap = []
    for rows in by_level:
        for dw in rows:
            while dw:
                p = dw.bit_length() - 1
                if p not in pivots:
                    pivots[p] = dw
                    per_degree[degree_at[p]] += 1
                    break
                dw ^= pivots[p]
        snap.append(per_degree.copy())
    return [sum(levels[k + 1:s + 1]) - sum(snap[s][k + 1:s + 1])
            for k, s in pairs]
