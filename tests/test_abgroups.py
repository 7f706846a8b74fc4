import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from dihedral_dynamics.abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    Presentation,
    SnfSolver,
    _SparseSmith,
    columns,
    from_columns,
    identity_matrix,
    kernel_basis,
    lift_identity,
    mat_mul,
    mat_sub,
    mat_vec,
    preimage_lattice,
    smith_normal_form,
    snf_diagonal,
    subquotient,
)


def solve_integer(mat, rhs):
    """An integer solution x of mat x = rhs, or None."""
    if not mat:
        return [] if not any(rhs) else None
    return SnfSolver(mat).solve(rhs)


def lattice_subset(a, b):
    """Whether every column of a lies in the column lattice of b, by one
    solver and a solve per column: the reference that membership
    decided from Smith invariants is checked against."""
    if not a or not a[0]:
        return True
    solver = SnfSolver(b)
    return all(solver.solve(col) is not None for col in columns(a))


def det(m):
    """Fraction-based Gaussian determinant, independent of the SNF code."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def random_unimodular(rng, n, steps=12):
    m = identity_matrix(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


class TestSmithNormalForm:
    def test_divisibility_fixup(self):
        _, s, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [s[0][0], s[1][1]] == [1, 6]

    def test_zero_matrix(self):
        assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]

    def test_identity(self):
        assert snf_diagonal(identity_matrix(3)) == [1, 1, 1]

    def test_random_round_trip(self):
        rng = random.Random(99)
        for _ in range(1000):
            r = rng.randint(1, 12)
            c = rng.randint(1, 12)
            m = [[rng.randint(-1000, 1000) for _ in range(c)] for _ in range(r)]
            u, s, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == s
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            diag = [s[i][i] for i in range(min(r, c))]
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert s[i][j] == 0

    def test_deterministic(self):
        rng = random.Random(1)
        m = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(5)]
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_transforms_unimodular(self):
        rng = random.Random(2)
        for _ in range(100):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]
            u, _, v = smith_normal_form(m)
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1


class TestSolveAndKernel:
    def test_solve(self):
        assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
        assert solve_integer([[2]], [3]) is None
        assert solve_integer([[1, 1]], [5]) is not None

    def test_kernel(self):
        rng = random.Random(4)
        for _ in range(100):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            kb = kernel_basis(m)
            for v in kb:
                assert all(x == 0 for x in mat_vec(m, v))
            diag = snf_diagonal(m)
            assert len(kb) == c - sum(1 for d in diag if d)


# ---------------------------------------------------------------------------
# Oracles for the sparse kernel: the dense elimination it replaced, sympy,
# and a full-rescan model of its unit-pivot order
# ---------------------------------------------------------------------------


def reference_snf_diagonal(mat):
    """The dense elimination on lists that the sparse kernel replaced.

    Smallest |pivot| first (row-major tie-break), its column and row
    cleared by Euclid steps with swaps, then the rest of the block made
    divisible by it; no transforms.
    """
    s = [list(row) for row in mat]
    rows, cols = len(s), len(s[0]) if s else 0

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        entries = [(abs(s[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if s[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        s[t], s[pi] = s[pi], s[t]
        swap_cols(t, pj)
        while True:
            i = next((i for i in range(t + 1, rows) if s[i][t]), None)
            if i is not None:
                q = s[i][t] // s[t][t]
                s[i] = [a - q * b for a, b in zip(s[i], s[t])]
                if s[i][t]:
                    s[t], s[i] = s[i], s[t]
                continue
            j = next((j for j in range(t + 1, cols) if s[t][j]), None)
            if j is not None:
                q = s[t][j] // s[t][t]
                for row in s:
                    row[j] -= q * row[t]
                if s[t][j]:
                    swap_cols(t, j)
                continue
            break
        d = s[t][t]
        viol = next((i for i in range(t + 1, rows) if any(x % d for x in s[i][t + 1:])), None)
        if viol is not None:
            s[t] = [a + b for a, b in zip(s[t], s[viol])]
            continue
        t += 1
    return [abs(s[i][i]) for i in range(min(rows, cols))]


def sympy_snf_diagonal(mat, cols):
    rows = len(mat)
    s = sympy_smith_normal_form(
        SympyMatrix(rows, cols, [x for row in mat for x in row]), domain=ZZ)
    return [abs(int(s[i, i])) for i in range(min(rows, cols))]


def reference_unit_pivots(mat):
    """Unit pivots chosen by rescanning the dense active block each step:
    the least (Markowitz cost, row, col) over +-1 entries, its column
    cleared by row operations, then its row and column dropped."""
    s = [list(row) for row in mat]
    live_rows = set(range(len(s)))
    live_cols = set(range(len(s[0]) if s else 0))
    order = []
    while True:
        rn = {i: sum(1 for j in live_cols if s[i][j]) for i in live_rows}
        cn = {j: sum(1 for i in live_rows if s[i][j]) for j in live_cols}
        units = [((rn[i] - 1) * (cn[j] - 1), i, j)
                 for i in live_rows for j in live_cols if abs(s[i][j]) == 1]
        if not units:
            return order
        _, r, c = min(units)
        for i in live_rows - {r}:
            f = s[i][c] * s[r][c]
            s[i] = [a - f * b for a, b in zip(s[i], s[r])]
        live_rows.discard(r)
        live_cols.discard(c)
        order.append((r, c))


UNIT_ENTRIES = (0, 1, -1)
NON_UNIT_ENTRIES = (0, 2, -2, 3, -3, 6, -6)


@st.composite
def shaped_matrices(draw, entries):
    """(mat, cols): a list of rows, with its width (lost when rows = 0)."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    flat = draw(st.lists(st.sampled_from(entries), min_size=rows * cols, max_size=rows * cols))
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols


ANY_MATRIX = st.one_of(shaped_matrices(UNIT_ENTRIES), shaped_matrices(NON_UNIT_ENTRIES))
SHAPES = [([], 0), ([], 3), ([[], []], 0), ([[2, 3, 6]], 3), ([[6], [-3], [2]], 1),
          ([[1, -1, 0, 1]], 4), ([[0], [1], [-1]], 1), ([[0, 0], [0, 0], [0, 0]], 2)]


def with_shapes(test):
    for shaped in SHAPES:
        test = example(shaped)(test)
    return test


def with_shapes_and_rng(test):
    for shaped in SHAPES:
        test = example(shaped, random.Random(0))(test)
    return test


class TestSnfOracles:
    @with_shapes
    @given(ANY_MATRIX)
    @settings(max_examples=200, deadline=None)
    def test_diagonal_matches_dense_and_sympy(self, shaped):
        mat, cols = shaped
        diag = snf_diagonal(mat)
        assert diag == reference_snf_diagonal(mat) == sympy_snf_diagonal(mat, cols)
        _, s, _ = smith_normal_form(mat)
        assert [s[i][i] for i in range(len(diag))] == diag

    @with_shapes
    @given(ANY_MATRIX)
    @settings(max_examples=200, deadline=None)
    def test_transforms(self, shaped):
        mat, cols = shaped
        rows = len(mat)
        cols = cols if rows else 0
        u, s, v = smith_normal_form(mat)
        assert [len(row) for row in u] == [rows] * rows
        assert [len(row) for row in v] == [cols] * cols
        assert [len(row) for row in s] == [cols] * rows
        if rows and cols:
            assert mat_mul(mat_mul(u, mat), v) == s
        assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1

    @with_shapes
    @given(ANY_MATRIX)
    @settings(max_examples=200, deadline=None)
    def test_kernel_basis(self, shaped):
        mat, cols = shaped
        if not mat:
            return      # a list of no rows has no width
        kb = kernel_basis(mat)
        rank = sum(1 for d in reference_snf_diagonal(mat) if d)
        assert rank + len(kb) == cols
        for k in kb:
            assert len(k) == cols
            assert not any(mat_vec(mat, k))
        if kb:
            # saturated: the kernel columns span a pure sublattice
            assert reference_snf_diagonal(from_columns(kb)) == [1] * len(kb)

    @with_shapes_and_rng
    @given(ANY_MATRIX, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_solver(self, shaped, rng):
        mat, cols = shaped
        rows = len(mat)
        cols = cols if rows else 0
        solver = SnfSolver(mat)
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = mat_vec(mat, x)
        y = solver.solve(b)
        assert y is not None and mat_vec(mat, y) == b
        # b lies in the column lattice L iff L + Zb has the invariants of L
        b = [rng.randint(-6, 6) for _ in range(rows)]
        augmented = [row + [bi] for row, bi in zip(mat, b)]
        inside = ([d for d in sympy_snf_diagonal(augmented, cols + 1) if d]
                  == [d for d in sympy_snf_diagonal(mat, cols) if d])
        y = solver.solve(b)
        assert (y is not None) == inside
        if inside:
            assert mat_vec(mat, y) == b

    # the first pivot fills row 2, so taking (2, 2) on its older, lower
    # key instead of (3, 0) would show here
    @example(([[1, 0, 1, 1, -1], [-1, 1, 0, 0, -1], [0, -1, -1, 1, 0], [-1, 0, 0, 1, 0]], 5))
    @given(shaped_matrices(UNIT_ENTRIES))
    @settings(max_examples=200, deadline=None)
    def test_unit_pivot_order(self, shaped):
        mat, _ = shaped
        ref = reference_unit_pivots(mat)
        for track in (False, True):
            pivots = _SparseSmith(mat, track=track).pivots
            assert [(r, c) for r, c, _ in pivots[:len(ref)]] == ref

    @with_shapes
    @given(ANY_MATRIX)
    @settings(max_examples=200, deadline=None)
    def test_diagonal_mode_moves_no_pivot(self, shaped):
        # without transforms a unit pivot's row leaves without column
        # steps; the pivots are those of the transform mode, up to sign
        mat, _ = shaped
        plain, tracked = (_SparseSmith(mat, track=track).pivots for track in (False, True))
        assert [(r, c, abs(d)) for r, c, d in plain] == [(r, c, abs(d)) for r, c, d in tracked]

    def test_fill_avoided(self):
        # Arrowhead: the diagonal units cost 1 and go first; the dense
        # first row and column wait, so no step fills the block.
        n = 6
        arrow = [[1 if i == 0 or j == 0 or i == j else 0 for j in range(n)] for i in range(n)]
        arrow[0][0] = n
        pivots = _SparseSmith(arrow, track=False).pivots
        assert [(r, c) for r, c, _ in pivots] == [(i, i) for i in range(1, n - 1)] + [(0, n - 1), (n - 1, 0)]

    def test_least_entry_first_without_units(self):
        assert _SparseSmith([[6, 0], [0, 2]], track=False).pivots == [(1, 1, 2), (0, 0, 6)]
        assert snf_diagonal([[4, 0], [0, 6]]) == [2, 12]


class TestSubquotient:
    def test_identity_action(self):
        # ker(A - I)/im(A + I) for A = I on Z^1
        assert subquotient([[0]], [[2]]) == FGAbGroup(0, (2,))

    def test_swap_odd(self):
        swap_minus = [[-1, 1], [1, -1]]
        swap_plus = [[1, 1], [1, 1]]
        assert subquotient(swap_minus, swap_plus) == FGAbGroup(0)

    def test_swap_even(self):
        swap_minus = [[-1, 1], [1, -1]]
        swap_plus = [[1, 1], [1, 1]]
        assert subquotient(swap_plus, swap_minus) == FGAbGroup(0)

    def test_containment_violation(self):
        with pytest.raises(ValueError):
            subquotient([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_invariance_under_basis_change(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(2, 5)
            # a random involution built from a signed permutation
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = [(perm[i], perm[i + 1]) for i in range(0, n - 1, 2)]
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = 1
            for i, j in pairs:
                a[i][i] = a[j][j] = 0
                a[i][j] = a[j][i] = 1
            minus = [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
            plus = [[a[i][j] + (i == j) for j in range(n)] for i in range(n)]
            base = subquotient(minus, plus)
            u = random_unimodular(rng, n)
            ui = _int_inverse(u)
            conj_minus = mat_mul(mat_mul(u, minus), ui)
            conj_plus = mat_mul(mat_mul(u, plus), ui)
            assert subquotient(conj_minus, conj_plus) == base


def _int_inverse(u):
    n = len(u)
    m = [[Fraction(x) for x in row] for row in u]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        piv = next(r for r in range(i, n) if m[r][i])
        m[i], m[piv] = m[piv], m[i]
        inv[i], inv[piv] = inv[piv], inv[i]
        f = m[i][i]
        m[i] = [x / f for x in m[i]]
        inv[i] = [x / f for x in inv[i]]
        for r in range(n):
            if r != i and m[r][i]:
                g = m[r][i]
                m[r] = [a - g * b for a, b in zip(m[r], m[i])]
                inv[r] = [a - g * b for a, b in zip(inv[r], inv[i])]
    return [[int(x) for x in row] for row in inv]


class TestPresentations:
    def test_canonical(self):
        p = Presentation.of(2, [(2, 0)])
        assert p.canonical() == FGAbGroup(1, (2,))
        assert Presentation.free(3).canonical() == FGAbGroup(3)
        assert Presentation.of(1, [(1,)]).canonical() == FGAbGroup(0)

    def test_hom_validation(self):
        src = Presentation.of(1, [(2,)])
        dst = Presentation.free(1)
        with pytest.raises(ValueError):
            AbHom.of(src, dst, [[1]])     # 2*1 = 2 is not a relation in Z
        AbHom.of(src, Presentation.of(1, [(2,)]), [[1]])

    def test_kernel_image(self):
        # Z --x2--> Z has trivial kernel and image 2Z (canonically Z)
        h = AbHom.of(Presentation.free(1), Presentation.free(1), [[2]])
        assert h.kernel_group() == FGAbGroup(0)
        assert h.image_group() == FGAbGroup(1)
        # Z -> Z/4 by 1 -> 2 has kernel 2Z and image Z/2
        h = AbHom.of(Presentation.free(1), Presentation.of(1, [(4,)]), [[2]])
        assert h.image_group() == FGAbGroup(0, (2,))
        assert h.kernel_group() == FGAbGroup(1)

    def test_into_no_generators(self):
        # the matrix of a map into the zero group has no rows
        h = AbHom.of(Presentation.free(2), Presentation.free(0), [])
        assert h.kernel_group() == FGAbGroup(2)
        assert h.image_group() == FGAbGroup(0)
        assert not h.is_isomorphism()

    def test_equals_hom(self):
        p = Presentation.of(1, [(5,)])
        h1 = AbHom.of(p, p, [[1]])
        h2 = AbHom.of(p, p, [[6]])
        assert equals_hom(h1, h2)
        assert not equals_hom(h1, AbHom.of(p, p, [[2]]))
        assert not equals_hom(h1, AbHom.of(p, Presentation.free(1), [[0]]))


def equals_hom(h, k):
    """Equality as maps of presented groups: both are homs between the
    same groups and their difference lands in the destination relations
    (by the solver reference)."""
    if h.src.ngens != k.src.ngens or h.dst != k.dst:
        return False
    return relation_rule(h.dst, mat_sub(h.mat(), k.mat()))


def relation_rule(dst, diff):
    """The flip rule of the translation telescope, by the solver
    reference: every column of ``diff`` lies in the relations of ``dst``."""
    return lattice_subset(diff, dst.relation_matrix())


def lattice_injective(h):
    """Injectivity from kernel lattices: every x whose image lies in the
    destination relations lies in the source relations."""
    if not h.dst.ngens:
        return lattice_subset(identity_matrix(h.src.ngens), h.src.relation_matrix())
    pre = preimage_lattice(h.mat(), h.dst.relation_matrix())
    return lattice_subset(pre, h.src.relation_matrix())


HOM_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6])


def cols(n, **size):
    """Lists of integer columns of length n."""
    return st.lists(st.lists(HOM_ENTRIES, min_size=n, max_size=n), **size)


@st.composite
def presented_homs(draw):
    """A valid hom between presented groups on 0..4 generators with
    torsion: a random or zero matrix (non-square when the sides differ,
    with the images of the source relations added to the destination's),
    or an isomorphism (a unimodular change of generators)."""
    kind = draw(st.sampled_from(["random", "zero", "iso"]))
    m = draw(st.integers(0, 4))
    src_rels = draw(cols(m, max_size=4))
    if kind == "iso":
        n = m
        mat = random_unimodular(random.Random(draw(st.integers(0, 2 ** 16))), m)
        dst_rels = []
    else:
        n = draw(st.integers(0, 4))
        if kind == "zero":
            mat = [[0] * m for _ in range(n)]
        else:
            mat = draw(cols(m, min_size=n, max_size=n))
        dst_rels = draw(cols(n, max_size=3))
    dst_rels += [mat_vec(mat, col) for col in src_rels]
    return kind, AbHom.of(Presentation.of(m, src_rels), Presentation.of(n, dst_rels), mat)


@st.composite
def hom_differences(draw):
    """A valid hom h (matrix M) between presented groups on 0..4
    generators and a difference D: either an integer combination of
    destination relations ("inner"), or any matrix with the images
    D * r of the source relations added to the destination's
    ("valid"), so that M + D is a hom as well, or any matrix ("any"),
    where M + D need not be one."""
    kind = draw(st.sampled_from(["inner", "valid", "any"]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    src_rels = draw(cols(m, max_size=3))
    mat = draw(cols(m, min_size=n, max_size=n))
    diff = draw(cols(m, min_size=n, max_size=n))
    dst_rels = draw(cols(n, max_size=3)) + [mat_vec(mat, col) for col in src_rels]
    if kind == "inner":
        combo = draw(cols(m, min_size=len(dst_rels), max_size=len(dst_rels)))
        diff = mat_mul(from_columns(dst_rels, rows=n), combo) if dst_rels else [
            [0] * m for _ in range(n)]
    elif kind == "valid":
        dst_rels += [mat_vec(diff, col) for col in src_rels]
    src, dst = Presentation.of(m, src_rels), Presentation.of(n, dst_rels)
    return kind, AbHom.of(src, dst, mat), diff


class TestRelationMembershipRule:
    """The telescope decides that the flip acts trivially by asking
    whether each column of incl * (P - I) is a relation; that must agree
    with comparing incl * P and incl as homs, and must imply that
    incl * P is a hom."""

    def test_matches_equals_hom(self):
        verdicts = []

        @given(hom_differences())
        @settings(max_examples=300, deadline=None)
        def check(drawn):
            kind, h, diff = drawn
            rule = relation_rule(h.dst, diff)
            shifted = [[x + y for x, y in zip(r, d)] for r, d in zip(h.mat(), diff)]
            try:
                k = AbHom.of(h.src, h.dst, shifted)
            except ValueError:
                assert not rule and kind == "any"
                return
            assert rule == equals_hom(h, k)
            if kind == "inner":
                assert rule
            verdicts.append(rule)

        check()
        assert True in verdicts and False in verdicts

    def test_examples(self):
        # Z/6 -> Z/6: multiplying by 1 and by 7 agree, by 1 and 3 do not
        p = Presentation.of(1, [(6,)])
        assert relation_rule(p, [[6]]) and equals_hom(AbHom.of(p, p, [[1]]),
                                                      AbHom.of(p, p, [[7]]))
        assert not relation_rule(p, [[2]])
        # into no generators every difference is a relation
        assert relation_rule(Presentation.free(0), [])


@st.composite
def membership_cases(draw):
    """Relations R on 0..4 generators and columns X to test against them.

    R may be empty, have torsion, repeat a combination of its columns
    (rank-deficient) or hold zero columns; each column of X is a
    combination of R's columns, zero, or any column.
    """
    n = draw(st.integers(0, 4))
    rels = draw(cols(n, max_size=4))
    if rels and draw(st.booleans()):
        combo = draw(st.lists(HOM_ENTRIES, min_size=len(rels), max_size=len(rels)))
        rels.append([sum(c * rel[i] for c, rel in zip(combo, rels)) for i in range(n)])
    vectors = []
    for kind in draw(st.lists(st.sampled_from(["inner", "zero", "any"]), max_size=4)):
        if kind == "inner":
            combo = draw(st.lists(HOM_ENTRIES, min_size=len(rels), max_size=len(rels)))
            vectors.append([sum(c * rel[i] for c, rel in zip(combo, rels)) for i in range(n)])
        elif kind == "zero":
            vectors.append([0] * n)
        else:
            vectors.append(draw(st.lists(HOM_ENTRIES, min_size=n, max_size=n)))
    return Presentation.of(n, rels), vectors


@st.composite
def candidate_homs(draw):
    """Presented groups on 0..4 generators and a matrix M between them,
    with the images of the source relations (or twice them) added to the
    destination relations on some draws, so that M is a hom on those."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    src_rels = draw(cols(m, max_size=3))
    mat = draw(cols(m, min_size=n, max_size=n))
    dst_rels = draw(cols(n, max_size=3))
    scale = draw(st.sampled_from([0, 1, 2]))
    if scale:
        dst_rels += [[scale * x for x in mat_vec(mat, col)] for col in src_rels]
    return Presentation.of(m, src_rels), Presentation.of(n, dst_rels), mat


class TestContainsRelations:
    """``Presentation.contains_relations`` decides membership from Smith
    invariants; it must agree with the solver reference, and so must
    ``AbHom.of`` without a lift."""

    def test_matches_solver_reference(self):
        verdicts = []

        @given(membership_cases())
        @settings(max_examples=400, deadline=None)
        def check(case):
            pres, vectors = case
            expected = lattice_subset(from_columns(vectors, rows=pres.ngens),
                                      pres.relation_matrix())
            assert pres.contains_relations(vectors) == expected
            verdicts.append(expected)

        check()
        assert True in verdicts and False in verdicts

    def test_abhom_without_lift_matches_solver_reference(self):
        verdicts = []

        @given(candidate_homs())
        @settings(max_examples=300, deadline=None)
        def check(drawn):
            src, dst, mat = drawn
            images = [mat_vec(mat, col) for col in src.relations]
            expected = lattice_subset(from_columns(images, rows=dst.ngens),
                                      dst.relation_matrix())
            assert accepts(src, dst, mat) == expected
            verdicts.append(expected)

        check()
        assert True in verdicts and False in verdicts

    def test_examples(self):
        six = Presentation.of(2, [(6, 0), (0, 0)])
        assert six.contains_relations([[12, 0], [0, 0], [-6, 0]])
        assert not six.contains_relations([[12, 0], [2, 0]])
        assert not six.contains_relations([[0, 1]])
        # no relations: only zero columns; no columns at all: vacuously
        assert Presentation.free(2).contains_relations([[0, 0]])
        assert not Presentation.free(2).contains_relations([[0, 1]])
        assert six.contains_relations([])
        # zero generators
        assert Presentation.free(0).contains_relations([[], []])


def solved_lift(dst, images):
    """Lift columns w with R_dst * w = image, solved one image at a time
    (a zero column where none exists), and whether every image solved."""
    lift_cols, ok = [], True
    for image in images:
        if not dst.ngens or not any(image):
            w = [0] * len(dst.relations)
        else:
            w = solve_integer(dst.relation_matrix(), image) if dst.relations else None
        if w is None:
            w, ok = [0] * len(dst.relations), False
        lift_cols.append(w)
    return [list(row) for row in zip(*lift_cols)] if lift_cols else [
        [] for _ in dst.relations], ok


@st.composite
def lifted_maps(draw):
    """Presented groups on 0..4 generators, a matrix M and a lift W.

    "lifted" draws add the columns M * r + R0 * c to the drawn destination
    relations R0, one per source relation r, so M is a hom and its lift
    [-c ; I] mixes both families of relations; "any" draws keep R0, so M
    need not be a hom, and W is solved column by column.  ``perturbed``
    adds a nonzero delta to one entry of W in a row whose destination
    relation is nonzero, when there is one, so R_dst * W changes.
    """
    kind = draw(st.sampled_from(["lifted", "any"]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    src_rels = draw(cols(m, max_size=3))
    mat = draw(cols(m, min_size=n, max_size=n))
    dst_rels = draw(cols(n, max_size=3))
    src, base = Presentation.of(m, src_rels), len(dst_rels)
    images = [mat_vec(mat, col) for col in src_rels]
    if kind == "lifted":
        combos = draw(cols(base, min_size=len(src_rels), max_size=len(src_rels)))
        for image, c in zip(images, combos):
            dst_rels.append([x + sum(ck * rel[i] for ck, rel in zip(c, dst_rels[:base]))
                             for i, x in enumerate(image)])
        lift = [[-c[k] for c in combos] for k in range(base)] + [
            [int(j == k) for j in range(len(src_rels))] for k in range(len(src_rels))]
    dst = Presentation.of(n, dst_rels)
    if kind == "any":
        lift, _ = solved_lift(dst, images)
    rows = [k for k, rel in enumerate(dst.relations) if any(rel)]
    perturbed = bool(rows and src_rels) and draw(st.booleans())
    if perturbed:
        k, j = draw(st.sampled_from(rows)), draw(st.integers(0, len(src_rels) - 1))
        lift[k][j] += draw(st.sampled_from([-2, -1, 1, 3]))
    return src, dst, mat, lift, perturbed


def accepts(src, dst, mat, *lift):
    try:
        AbHom.of(src, dst, mat, *lift)
    except ValueError:
        return False
    return True


class TestLiftIdentity:
    """``AbHom.of`` with a lift checks M * R_src == R_dst * W exactly; a
    correct lift must reach the verdict of the route without a lift, and
    a wrong one must be refused."""

    def test_matches_solver_route(self):
        verdicts, perturbed_draws = [], []

        @given(lifted_maps())
        @settings(max_examples=400, deadline=None)
        def check(drawn):
            src, dst, mat, lift, perturbed = drawn
            if perturbed:
                assert not accepts(src, dst, mat, lift)
                assert not lift_identity(mat, src.relations, dst.relations, lift)
                perturbed_draws.append(accepts(src, dst, mat))
                return
            verdict = accepts(src, dst, mat, lift)
            assert verdict == accepts(src, dst, mat)
            assert verdict == lift_identity(mat, src.relations, dst.relations, lift)
            verdicts.append(verdict)

        check()
        assert True in verdicts and False in verdicts
        # a wrong lift of a valid hom is refused, not trusted
        assert True in perturbed_draws

    def test_examples(self):
        two, four = Presentation.of(1, [(2,)]), Presentation.of(1, [(4,)])
        # Z/2 -> Z/4 by 2: 2 * 2 = 4 * 1
        assert accepts(two, four, [[2]], [[1]])
        assert not accepts(two, four, [[2]], [[2]])
        # Z/2 -> Z/4 by 1 is no hom, and no lift makes it one
        assert not accepts(two, four, [[1]], [[0]])
        assert not accepts(two, four, [[1]])
        # a lift of the wrong shape is refused
        assert not accepts(two, four, [[2]], [[1, 0]])
        assert not accepts(two, four, [[2]], [])
        # into no generators: no rows, and no relations to lift onto
        assert accepts(Presentation.of(1, [(3,)]), Presentation.free(0), [], [])
        # a zero relation lifts to anything that lands on zero
        zero = Presentation.of(1, [(0,)])
        assert accepts(zero, zero, [[5]], [[7]])
        assert not accepts(zero, four, [[1]], [[1]]) and accepts(zero, four, [[1]], [[0]])


class TestIsomorphismRule:
    @given(presented_homs())
    @settings(max_examples=300, deadline=None)
    def test_matches_kernel_lattice_route(self, drawn):
        kind, h = drawn
        assert h.is_isomorphism() == (h.is_surjective() and lattice_injective(h))
        if kind == "iso":
            assert h.is_isomorphism()

    @pytest.mark.parametrize("src,dst,mat,iso", [
        (Presentation.of(1, [(4,)]), Presentation.of(1, [(4,)]), [[3]], True),
        (Presentation.of(1, [(4,)]), Presentation.of(1, [(4,)]), [[2]], False),
        # onto but not one to one
        (Presentation.of(1, [(4,)]), Presentation.of(1, [(2,)]), [[1]], False),
        (Presentation.free(1), Presentation.free(1), [[2]], False),
        (Presentation.free(2), Presentation.of(1, [(0,)]), [[1, 0]], False),
        (Presentation.of(2, [(0, 1)]), Presentation.free(1), [[1, 0]], True),
        (Presentation.of(2, [(2, 0), (0, 3)]), Presentation.of(1, [(6,)]), [[3, 2]], True),
        (Presentation.free(0), Presentation.of(1, [(1,)]), [[]], True),
        (Presentation.free(2), Presentation.free(0), [], False),
        (Presentation.of(1, [(1,)]), Presentation.free(0), [], True),
    ])
    def test_examples(self, src, dst, mat, iso):
        h = AbHom.of(src, dst, mat)
        assert h.is_isomorphism() == iso
        assert lattice_injective(h) == iso or not h.is_surjective()


class TestDirectSystems:
    def test_localization(self):
        stages = tuple(Presentation.free(1) for _ in range(4))
        maps = tuple(AbHom.of(stages[i], stages[i + 1], [[k]])
                     for i, k in enumerate((2, 3, 2)))
        lim = DirectSystem(stages, maps).limit()
        assert lim.kind == "localization"
        assert lim.localization.display == "Z[1/6]"
        assert lim.localization.multipliers == (2, 3, 2)
        assert lim.localization.primes == (2, 3)

    def test_constant_free(self):
        stages = tuple(Presentation.free(2) for _ in range(3))
        maps = tuple(AbHom.of(stages[i], stages[i + 1], identity_matrix(2))
                     for i in range(2))
        lim = DirectSystem(stages, maps).limit()
        assert lim.kind == "stabilized"
        assert lim.group == FGAbGroup(2)
        assert lim.level == 1

    def test_constant_torsion(self):
        p = Presentation.of(1, [(2,)])
        stages = (p, p, p)
        maps = tuple(AbHom.of(p, p, [[1]]) for _ in range(2))
        lim = DirectSystem(stages, maps).limit()
        assert lim.kind == "stabilized" and lim.group == FGAbGroup(0, (2,))

    def test_prefix_invariance(self):
        p0 = Presentation.free(1)
        p = Presentation.free(2)
        first = AbHom.of(p0, p, [[1], [0]])
        later = AbHom.of(p, p, identity_matrix(2))
        full = DirectSystem((p0, p, p, p), (first, later, later))
        dropped = DirectSystem((p, p, p), (later, later))
        assert full.limit().group == dropped.limit().group == FGAbGroup(2)

    def test_undetermined(self):
        p = Presentation.free(2)
        grow = AbHom.of(p, p, [[2, 0], [0, 3]])
        lim = DirectSystem((p, p, p), (grow, grow)).limit()
        assert lim.kind == "undetermined"

    def test_needs_three_stages(self):
        p = Presentation.free(1)
        with pytest.raises(ValueError):
            DirectSystem((p, p), (AbHom.of(p, p, [[1]]),)).limit()


class TestFGAbGroup:
    def test_direct_sum_chain(self):
        g = FGAbGroup(1, (2,)).direct_sum(FGAbGroup(0, (2, 6)))
        assert g == FGAbGroup(1, (2, 2, 6))
        h = FGAbGroup(0, (2,)).direct_sum(FGAbGroup(0, (3,)))
        assert h == FGAbGroup(0, (6,))

    def test_validation(self):
        with pytest.raises(ValueError):
            FGAbGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FGAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbGroup(-1)

    def test_json(self):
        g = FGAbGroup(2, (2, 4))
        assert FGAbGroup.from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_str(self):
        assert str(FGAbGroup(0)) == "0"
        assert str(FGAbGroup(2, (2, 2, 2))) == "Z^2 + Z/2 + Z/2 + Z/2"
