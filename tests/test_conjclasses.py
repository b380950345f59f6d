import math
import random
from collections import Counter

import pytest

from conftest import all_elements, all_matrices, lift_max_n
from helpers_orbits import coset_reducer, sampled_fiber_orbits, solve_commutant
from rmclass import conjclasses
from rmclass.burnside import count
from rmclass.conjclasses import (
    CellDecompositionError,
    CellFormatError,
    ConjCell,
    affine_cells,
    exhaustive_cells,
    export_cells,
    gl_classes,
    import_cells,
    irreducible_polys,
    rational_cells,
    rational_runs,
)
from rmclass.gf2 import (
    identity as identity_matrix,
    mat_mul,
    rank,
    rank_of_rows,
)
from rmclass.linrep import fixed_space_log2, monomial_images
from rmclass.group import (
    AffineElement,
    BitMatrix,
    BitVector,
    conjugate,
    group_orders,
    to_permutation,
)


def conjugacy_partition(elements, conjugators):
    """Orbit partition of `elements` under conjugation, by closure over a
    generating set of conjugators. Returns a list of frozensets."""
    index = {g: i for i, g in enumerate(elements)}
    seen = [False] * len(elements)
    parts = []
    for g in elements:
        if seen[index[g]]:
            continue
        orbit = {g}
        stack = [g]
        seen[index[g]] = True
        while stack:
            x = stack.pop()
            for h in conjugators:
                y = conjugate(h, x)
                if y not in orbit:
                    orbit.add(y)
                    seen[index[y]] = True
                    stack.append(y)
        parts.append(frozenset(orbit))
    return parts


def agl_generators(n):
    gens = [AffineElement(n, identity_matrix(n), BitVector(n, 1))]
    if n >= 2:
        shift = BitMatrix(n, n, tuple(1 << ((i + 1) % n) for i in range(n)))
        trans = BitMatrix(n, n, (0b11,) + tuple(1 << i for i in range(1, n)))
        gens.append(AffineElement(n, shift, BitVector(n, 0)))
        gens.append(AffineElement(n, trans, BitVector(n, 0)))
    return gens


def poly_rem(a, m):
    """a mod m over GF(2), both packed as ints."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def test_irreducible_polys():
    polys = irreducible_polys(10)
    assert polys[:7] == irreducible_polys(4) == (3, 7, 11, 13, 19, 25, 31)
    assert list(polys) == sorted(set(polys), key=lambda p: (p.bit_length(), p))
    # each is irreducible by trial division (x itself excluded): with the
    # count of monic irreducibles of each degree, the list is complete
    for p in polys:
        deg = p.bit_length() - 1
        assert p & 1
        assert all(poly_rem(p, q) for q in range(3, 1 << (deg // 2 + 1)))
    by_degree = Counter(p.bit_length() - 1 for p in polys)
    assert [by_degree[d] for d in range(1, 11)] == [1, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_gl_classes_small():
    one = gl_classes(1)
    assert len(one) == 1 and one[0].size == 1 and one[0].centralizer == 1
    assert sorted(c.size for c in gl_classes(2)) == [1, 2, 3]
    assert len(gl_classes(3)) == 6
    assert sum(c.size for c in gl_classes(3)) == 168
    assert len(gl_classes(4)) == 14
    assert sum(c.size for c in gl_classes(4)) == 20160


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_class_counting_identity(n):
    for c in gl_classes(n):
        assert rank(c.rep) == n
        assert c.size * c.centralizer == group_orders(n)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_gl_classes_match_exhaustive_partition(n):
    from rmclass.gf2 import inverse as mat_inverse
    gen_pairs = [(g.a, mat_inverse(g.a)) for g in agl_generators(n)[1:]]
    seen = set()
    parts = []
    for m in all_matrices(n):
        if m.row_bits in seen:
            continue
        orbit = {m.row_bits}
        stack = [m]
        while stack:
            x = stack.pop()
            for g, gi in gen_pairs:
                y = mat_mul(mat_mul(g, x), gi)
                if y.row_bits not in orbit:
                    orbit.add(y.row_bits)
                    stack.append(y)
        seen |= orbit
        parts.append(orbit)
    assert sum(len(p) for p in parts) == group_orders(n)[0]
    classes = gl_classes(n)
    assert sorted(len(p) for p in parts) == sorted(c.size for c in classes)
    owner = {bits: i for i, p in enumerate(parts) for bits in p}
    assert sorted(owner[c.rep.row_bits] for c in classes) == list(range(len(parts)))
    for c in classes:
        assert len(parts[owner[c.rep.row_bits]]) == c.size


def test_exhaustive_cells_small():
    one = exhaustive_cells(1)
    assert [(c.rep.a.to_strings(), str(c.rep.b), c.size) for c in one] == [
        (["1"], "0", 1), (["1"], "1", 1)]
    two = exhaustive_cells(2)
    assert sorted(c.size for c in two) == [1, 3, 6, 6, 8]  # symmetric group on 4
    assert sum(c.size for c in two) == 24
    assert sum(c.size for c in exhaustive_cells(3)) == 1344
    with pytest.raises(ValueError):
        exhaustive_cells(5)


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_cells_match_direct_partition(n):
    parts = conjugacy_partition(all_elements(n), agl_generators(n))
    sizes = sorted(len(p) for p in parts)
    cells = exhaustive_cells(n)
    assert sorted(c.size for c in cells) == sizes
    # reps must land in pairwise distinct classes and carry the right size
    owner = {}
    for i, p in enumerate(parts):
        for g in p:
            owner[g] = i
    seen = set()
    for c in cells:
        i = owner[c.rep]
        assert i not in seen
        seen.add(i)
        assert c.size == len(parts[i])


@pytest.mark.parametrize("n", range(1, 7))
def test_affine_cells_cover_group(n):
    cells = affine_cells(n)
    assert sum(c.size for c in cells) == group_orders(n)[1]
    assert all(c.size >= 1 for c in cells)
    assert all(c.rep.n == n for c in cells)


def test_affine_cells_n1():
    assert [(str(c.rep.b), c.size) for c in affine_cells(1)] == [("0", 1), ("1", 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_identity_fiber_splits_by_translation_rank(n):
    # conjugating (I, b) can reach exactly the nonzero translations
    cells = [c for c in affine_cells(n) if c.rep.a == identity_matrix(n)]
    assert sorted(c.size for c in cells) == [1, (1 << n) - 1]


@pytest.mark.parametrize("n", [2, 3])
def test_affine_cells_refine_true_classes(n):
    parts = conjugacy_partition(all_elements(n), agl_generators(n))
    owner = {}
    for i, p in enumerate(parts):
        for g in p:
            owner[g] = i
    per_class = Counter()
    for c in affine_cells(n):
        per_class[owner[c.rep]] += c.size
    assert per_class == Counter({i: len(p) for i, p in enumerate(parts)})


def test_affine_cells_deterministic():
    assert affine_cells(3) == affine_cells(3)


def test_affine_cells_rebuild_is_identical_cover():
    for n in (4, 5, 6):
        cells = affine_cells(n)
        assert cells == affine_cells(n)
        assert sum(c.size for c in cells) == group_orders(n)[1]


def test_cell_builds_keep_no_hidden_state(monkeypatch):
    # a build after a broken invariant must see the break: no earlier
    # build of the same n may stand in for it
    rational_cells(3)
    monkeypatch.setattr(conjclasses, "_centralizer_order",
                        lambda assignment: 3)
    with pytest.raises(ArithmeticError):
        gl_classes(3)
    with pytest.raises(ArithmeticError):
        rational_cells(3)


@pytest.mark.parametrize("n", range(1, 5))
def test_centralizer_order_counts_the_invertible_commutant(n):
    # an independent witness for the cached per-part factors: every member
    # of the commutant of the class rep, walked in Gray-code order (step i
    # adds the basis matrix of i's lowest set bit), counted if invertible
    for cls in gl_classes(n):
        basis = [m.row_bits for m in solve_commutant(cls.rep)]
        rows = (0,) * n
        units = 0
        for i in range(1, 1 << len(basis)):
            step = basis[(i & -i).bit_length() - 1]
            rows = tuple(r ^ t for r, t in zip(rows, step))
            if rank_of_rows(rows, [0] * n) == n:
                units += 1
        assert conjclasses._centralizer_order(cls.assignment) == units
        assert cls.centralizer == units


# --- the closed-form fiber orbits against independent constructions --------

def x_plus_1_partition(cls):
    """Sizes of the companion blocks of (x+1)^t in the class rep."""
    return dict(cls.assignment).get(0b11, ())


def claimed_orbits(cls, reduce):
    """The closed-form orbits on V/Im(A xor I), as sets of canonical coset
    members: a combination of the x+1 blocks' cyclic vectors belongs to the
    orbit named by the largest block it uses (0 for the zero vector)."""
    lam = x_plus_1_partition(cls)
    starts = [sum(lam[:i]) for i in range(len(lam))]
    orbits = {}
    for combo in range(1 << len(lam)):
        used = [i for i in range(len(lam)) if (combo >> i) & 1]
        v = 0
        for i in used:
            v |= 1 << starts[i]
        top = max((lam[i] for i in used), default=0)
        orbits.setdefault(top, set()).add(reduce(v))
    return {frozenset(o) for o in orbits.values()}


def cells_by_linear_part(n):
    out = {}
    for c in affine_cells(n):
        out.setdefault(c.rep.a.row_bits, []).append(c)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_fiber_orbits_match_sampled_walk(n):
    # each sampled orbit lies inside a true orbit, so equality with the
    # cells shows that every cell's members are mutually conjugate
    by_a = cells_by_linear_part(n)
    for idx, cls in enumerate(gl_classes(n)):
        a = cls.rep
        reduce = coset_reducer(a)
        sampled = sampled_fiber_orbits(a, random.Random(1_000_003 + idx))
        assert set(sampled) == claimed_orbits(cls, reduce)
        owner = {b: orbit for orbit in sampled for b in orbit}
        cells = by_a.pop(a.row_bits)
        hit = [owner[reduce(c.rep.b.bits)] for c in cells]
        assert len(set(hit)) == len(hit) == len(sampled)
        image_rank = rank(a ^ identity_matrix(n))
        for c, orbit in zip(cells, hit):
            assert c.size == cls.size * len(orbit) << image_rank
    assert not by_a  # every cell's linear part is a class rep


def poly_at(p, a):
    n = a.rows
    acc = BitMatrix(n, n, (0,) * n)
    power = identity_matrix(n)
    while p:
        if p & 1:
            acc = acc ^ power
        power = mat_mul(power, a)
        p >>= 1
    return acc


def class_invariant(cell):
    """Size, the ranks of p(A)^j for every irreducible p (they fix the GL
    class of A), and the cycle type of g on points."""
    g = cell.rep
    ranks = []
    for p in irreducible_polys(g.n):
        m = poly_at(p, g.a)
        x = m
        for _ in range(g.n):
            ranks.append(rank(x))
            x = mat_mul(x, m)
    return (cell.size, tuple(ranks),
            tuple(sorted(to_permutation(g).cycle_type())))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_cells_are_the_exhaustive_classes(n):
    true = Counter(class_invariant(c) for c in exhaustive_cells(n))
    # the invariant tells every true class apart, so equal multisets put
    # each cell in its own class with that class's size
    assert max(true.values()) == 1
    assert Counter(class_invariant(c) for c in affine_cells(n)) == true


@pytest.mark.parametrize("n", range(1, 11))
def test_cells_per_gl_class(n):
    by_a = cells_by_linear_part(n)
    for cls in gl_classes(n):
        parts = set(x_plus_1_partition(cls))
        assert len(by_a[cls.rep.row_bits]) == 1 + len(parts)


def test_exhaustive_cells_size_sum_raises(monkeypatch):
    # every class is one element too large, so the sizes miss |AGL(2,2)|
    monkeypatch.setattr(conjclasses, "ConjCell",
                        lambda rep, size: ConjCell(rep, size + 1))
    with pytest.raises(RuntimeError, match="sum"):
        exhaustive_cells(2)


def test_exhaustive_walk_is_cached_read_only():
    # the cached walk is shared by every call, so no caller may change it
    classes = conjclasses._point_table_classes(2)
    assert conjclasses._point_table_classes(2) is classes
    with pytest.raises(TypeError):
        classes[0] = bytes(4)
    with pytest.raises(TypeError):
        classes[0][0] = 1
    # each call decodes its own cells from the walk
    cells = exhaustive_cells(2)
    cells.pop()
    assert len(exhaustive_cells(2)) == len(classes) == len(cells) + 1


def test_exhaustive_walk_packs_each_class_smallest_first():
    size = 1 << 4
    classes = conjclasses._point_table_classes(4)
    assert sum(len(cls) for cls in classes) == group_orders(4)[1] * size
    assert all(len(cls) % size == 0 for cls in classes)
    tables = [[cls[i:i + size] for i in range(0, len(cls), size)]
              for cls in classes]
    assert all(ts[0] == min(ts) for ts in tables)
    assert [ts[0] for ts in tables] == sorted(ts[0] for ts in tables)
    assert len({t for ts in tables for t in ts}) == group_orders(4)[1]


def test_export_import_roundtrip(tmp_path):
    for cells in (*map(affine_cells, range(1, 9)), exhaustive_cells(2)):
        path = tmp_path / "cells.txt"
        export_cells(cells, path)
        text = path.read_text()
        assert text.startswith("rmclass-cells v1 ")
        assert import_cells(path) == cells
        # blank lines after the last cell are ignored
        path.write_text(text + "\n  \n\n")
        assert import_cells(path) == cells


def test_import_rejects_bad_files(tmp_path):
    cells = affine_cells(2)
    good = tmp_path / "good.txt"
    export_cells(cells, good)
    lines = good.read_text().splitlines()

    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return p

    with pytest.raises(CellFormatError):
        import_cells(write("empty.txt", ""))
    with pytest.raises(CellFormatError):
        import_cells(write("header.txt", "bogus header\n" + "\n".join(lines[1:])))
    with pytest.raises(CellFormatError):
        import_cells(write("trunc.txt", "\n".join(lines[:-1])))
    with pytest.raises(CellFormatError):
        import_cells(write("garbage.txt", "\n".join(lines + ["stray"])))
    # tampered size: format is fine, group cover is not
    assert lines[1].startswith("cell 0 size ")
    bad = lines[:]
    bad[1] = "cell 0 size 2"
    with pytest.raises(CellDecompositionError):
        import_cells(write("sum.txt", "\n".join(bad)))
    # singular linear part
    bad = lines[:]
    bad[2] = "00"
    with pytest.raises(CellDecompositionError):
        import_cells(write("singular.txt", "\n".join(bad)))


def _at(i, edit):
    """Replace line i of a file's lines by edit(line i)."""
    return lambda lines: lines[:i] + [edit(lines[i])] + lines[i + 1:]


# edits of the exported affine_cells(3), whose cell 1 is lines 6..10: its
# cell line, the three rows of A, then b. Each gives the error it must
# raise and a text of its message, the cell's name where there is one
CELL_1 = r"\bcell 1\b"
MALFORMED = {
    "size-0": (_at(6, lambda ln: "cell 1 size 0"),
               CellDecompositionError, CELL_1),
    "digit-2-in-a": (_at(7, lambda ln: ln.replace("1", "2", 1)),
                     CellFormatError, CELL_1),
    "digit-2-in-b": (_at(10, lambda ln: ln.replace("1", "2", 1)),
                     CellFormatError, CELL_1),
    "short-row": (_at(8, lambda ln: ln[:-1]), CellFormatError, CELL_1),
    "blank-row": (_at(9, lambda ln: ""), CellFormatError, CELL_1),
    "letter": (_at(8, lambda ln: "x" + ln[1:]), CellFormatError, CELL_1),
    "blank-line-in-block": (lambda lines: lines[:8] + [""] + lines[8:],
                            CellFormatError, "lines"),
    "leading-blank-line": (lambda lines: [""] + lines,
                           CellFormatError, "header"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_import_rejects_malformed_cells(tmp_path, case):
    edit, error, text = MALFORMED[case]
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    lines = path.read_text().splitlines()
    assert lines[6].startswith("cell 1 size ") and edit(lines) != lines
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(error, match=text):
        import_cells(path)


def test_affine_cells_rejects_out_of_range():
    with pytest.raises(ValueError):
        affine_cells(11)
    with pytest.raises(ValueError):
        affine_cells(0)


# --- rational cells: the classes of g^j, gcd(j, ord g) = 1, merged ----------

RATIONAL_CELLS = [2, 5, 10, 22, 40, 80, 140, 260, 447, 790]
GL_CLASSES = [1, 3, 6, 14, 27, 60, 117, 246, 490, 1002]  # OEIS A006951
AFFINE_CLASSES = [2, 5, 11, 25, 52, 112, 229, 475, 965, 1967]


def test_class_counts():
    for n, (gl, affine) in enumerate(zip(GL_CLASSES, AFFINE_CLASSES), 1):
        assert len(gl_classes(n)) == gl
        assert len(affine_cells(n)) == affine


def test_rational_cells_cover_group():
    for n, want in enumerate(RATIONAL_CELLS, 1):
        cells = rational_cells(n)
        assert len(cells) == want
        assert sum(c.size for c in cells) == group_orders(n)[1]
        assert all(c.rep.n == n for c in cells)
    with pytest.raises(ValueError):
        rational_cells(11)


def test_rational_powers_are_sound():
    # every power must be prime to the order of every semisimple part, or
    # it would merge the classes of elements with different cyclic groups;
    # past n = 10 too, where 23 divides 2^11 - 1
    for n in range(1, 13):
        powers = conjclasses._powers(n)
        assert len(set(powers)) == 8 and min(powers) > 1
        for r in powers:
            assert r % 2 == 1
            assert all(math.gcd(r, (1 << m) - 1) == 1
                       for m in range(1, n + 1))
    assert conjclasses._powers(10) == (13, 19, 23, 29, 37, 41, 43, 47)
    for m in range(1, 11):
        # each irreducible of degree m is the minimal polynomial of its m
        # roots, and of nothing else
        assert Counter(conjclasses._min_polys(m).values()) == {
            p: m for p in irreducible_polys(m) if p.bit_length() == m + 1}


def x_order(p):
    """The multiplicative order of x modulo the odd polynomial p, by
    repeated multiplication."""
    power, order = poly_rem(0b10, p), 1
    while power != 1:
        power, order = poly_rem(power << 1, p), order + 1
    return order


def test_min_polys_pick_the_first_primitive_polynomial():
    # gamma = x modulo the first odd candidate P, in increasing order, of
    # degree m whose x has order 2^m - 1; gamma^1 has minimal polynomial P
    # x^3+x+1 is primitive; (x+1)^3 and (x^2+x+1)^2 are not
    assert [x_order(p) for p in (0b1011, 0b1111, 0b10101)] == [7, 4, 6]
    for m in range(1, 11):
        order = (1 << m) - 1
        first = next(p for p in range((1 << m) | 1, 1 << (m + 1), 2)
                     if x_order(p) == order)
        assert conjclasses._min_polys(m)[1 % order] == first, m


def test_min_polys_are_cached_read_only():
    # one table per degree serves gl_classes and the merge of every n
    table = conjclasses._min_polys(5)
    assert conjclasses._min_polys(5) is table
    with pytest.raises(TypeError):
        table[0] = 0b11
    assert len(table) == 30 and 0 not in table


def merged_gl_partition(n):
    """GL class index -> smallest index of the GL classes merged with it."""
    index = {cls.assignment: i for i, cls in enumerate(gl_classes(n))}
    out = {}
    for group in conjclasses._rational_groups(n):
        ids = {index[cls.assignment] for cls in group}
        out.update(dict.fromkeys(ids, min(ids)))
    return out


def rational_cell_classes(n):
    """The conjugacy classes of affine_cells(n) that make up each rational
    cell, in the order of rational_cells(n): for each GL class of the
    cell's group, the class with that linear part and the cell's
    translation. Every class is used exactly once."""
    classes = {(c.rep.a, c.rep.b): c for c in affine_cells(n)}
    group_of = {group[0].rep: group
                for group in conjclasses._rational_groups(n)}
    out = [tuple(classes.pop((cls.rep, cell.rep.b))
                 for cls in group_of[cell.rep.a])
           for cell in rational_cells(n)]
    assert not classes
    return out


@pytest.mark.parametrize("n", [
    *range(1, 11), pytest.param(11, marks=pytest.mark.extended)])
def test_rational_merge_is_every_power(monkeypatch, n):
    # a brute loop over every j prime to each class's semisimple order:
    # the powers derived from n generate the same merge, past n = 10 too
    lift_max_n(monkeypatch, n)
    roots = {m: conjclasses._min_polys(m) for m in range(1, n + 1)}
    exps = {p: (m, e) for m, by_exp in roots.items()
            for e, p in by_exp.items()}

    def power(p, j):  # the minimal polynomial of alpha^j, p(alpha) = 0
        m, e = exps[p]
        return roots[m][e * j % ((1 << m) - 1)]

    def root_order(p):
        m, e = exps[p]
        return ((1 << m) - 1) // math.gcd(e, (1 << m) - 1)

    classes = gl_classes(n)
    index = {cls.assignment: i for i, cls in enumerate(classes)}
    want = {}
    for i, cls in enumerate(classes):
        if i in want:
            continue
        order = math.lcm(*(root_order(p) for p, _ in cls.assignment))
        for j in range(1, order + 1):
            if math.gcd(j, order) == 1:
                image = tuple(sorted((power(p, j), lam)
                                     for p, lam in cls.assignment))
                want[index[image]] = i
    assert merged_gl_partition(n) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_rational_groups_share_fixdims(n):
    pairs = [(k, s) for k in range(-1, n) for s in range(k + 1, n + 1)]
    for group in rational_cell_classes(n):
        profiles = {tuple(fixed_space_log2(monomial_images(c.rep), n, pairs))
                    for c in group}
        assert len(profiles) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rational_cells_are_power_classes(n):
    # each rational cell is the union of the true classes of g^j over every
    # j prime to ord(g), all found from point tables
    size = 1 << n
    classes = conjclasses._point_table_classes(n)
    owner = {cls[i:i + size]: cls[:size]
             for cls in classes for i in range(0, len(cls), size)}
    class_size = {cls[:size]: len(cls) // size for cls in classes}
    ident = bytes(range(size))
    want = set()
    for key in class_size:
        powers = [key]  # powers[j - 1] is g^j
        while powers[-1] != ident:
            powers.append(bytes(key[x] for x in powers[-1]))
        want.add(frozenset(owner[powers[j - 1]]
                           for j in range(1, len(powers) + 1)
                           if math.gcd(j, len(powers)) == 1))
    groups = rational_cell_classes(n)
    got = [frozenset(owner[bytes(to_permutation(c.rep).images)]
                     for c in group) for group in groups]
    assert [len(keys) for keys in got] == [len(group) for group in groups]
    assert len(got) == len(want) and set(got) == want
    assert [c.size for c in rational_cells(n)] == [
        sum(class_size[key] for key in keys) for keys in got]


def poly_mul(a, b):
    """a times b over GF(2), both packed as ints."""
    out = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            out ^= a << i
    return out


def companion_sum(assignment):
    """The direct sum of the companion matrices of p^e for the elementary
    divisors of the assignment, in order: the block of q of degree d maps
    e_j to e_(j+1) for j < d - 1, and e_(d-1) to the low coefficients of q.
    Built column by column, then read off by rows."""
    columns = []
    for p, lam in assignment:
        for e in lam:
            q = 1
            for _ in range(e):
                q = poly_mul(q, p)
            off, d = len(columns), q.bit_length() - 1
            columns += [1 << (off + j + 1) for j in range(d - 1)]
            columns.append((q ^ 1 << d) << off)
    n = len(columns)
    return BitMatrix(n, n, tuple(sum((c >> i & 1) << j
                                     for j, c in enumerate(columns))
                                 for i in range(n)))


@pytest.mark.parametrize("n", range(1, 11))
def test_gl_class_rep_is_the_companion_sum(n):
    for cls in gl_classes(n):
        assert cls.rep == companion_sum(cls.assignment), cls.assignment


@pytest.mark.parametrize("n", range(1, 11))
def test_rational_runs_flatten_to_rational_cells(n):
    # one run per rational group, led by the zero coset of its first
    # class's rep; flattened, the runs are the rational cells, row for
    # row, translation for translation and size for size
    groups = conjclasses._rational_groups(n)
    runs = rational_runs(n)
    assert [(g.a, g.b.bits) for g, _ in runs] == \
        [(group[0].rep, 0) for group in groups]
    flat = [(g.a.row_bits, b, size) for g, cells in runs for size, b in cells]
    assert flat == [(c.rep.a.row_bits, c.rep.b.bits, c.size)
                    for c in rational_cells(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_a_count_builds_one_rep_per_rational_group(monkeypatch, n):
    # GlClassDescriptor.rep is built on each read; a count reads only the
    # rep of each rational group's first class
    want = [group[0].rep for group in conjclasses._rational_groups(n)]
    built = []

    def spy(polys, real=conjclasses._companion_sum):
        built.append(real(polys))
        return built[-1]

    monkeypatch.setattr(conjclasses, "_companion_sum", spy)
    count(n, n, n - 2)
    assert built == want


# --- the invariant checks of the cell build ---------------------------------

def gl2_groups(*indices):
    """A merge of the GL(2,2) classes, given as tuples of class indices.
    Their x+1 partitions are (1, 1), (2,) and ()."""
    return lambda n: tuple(tuple(gl_classes(2)[i] for i in ids)
                           for ids in indices)


@pytest.mark.parametrize("name, fake, match", [
    # a table that names x+1 as the minimal polynomial of a root of degree
    # 2: the power 5 then sends x^2+x+1 to x+1, and the image of the class
    # of x^2+x+1 has degree 1
    ("_min_polys",
     lambda m, real=conjclasses._min_polys:
         {1: 0b11, 2: 0b111} if m == 2 else real(m),
     "no class"),
    ("_rational_groups", gl2_groups((0, 1), (2,)), "x\\+1 partitions"),
    # a merge that loses the class of x^2+x+1
    ("_rational_groups", gl2_groups((0,), (1,)), "sum"),
], ids=["image-no-class", "mixed-x1-partitions", "size-sum"])
def test_cell_build_invariants_raise(monkeypatch, name, fake, match):
    # the GL classes come from the real tables, so a fake table reaches
    # only the merge
    classes = gl_classes(2)
    monkeypatch.setattr(conjclasses, "gl_classes", lambda n: classes)
    monkeypatch.setattr(conjclasses, name, fake)
    with pytest.raises(RuntimeError, match=match):
        rational_cells(2)
