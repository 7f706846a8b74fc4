import json
import random
from collections import Counter
from dataclasses import dataclass
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihedral_dynamics import abgroups, homology, systems
from dihedral_dynamics.abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    LimitDescriptor,
    LocalizationDescriptor,
    Presentation,
    SnfSolver,
    kernel_basis,
    lift_identity,
    mat_mul,
    multiplier_limit,
    smith_normal_form,
    snf_diagonal,
    sparse_snf_diagonal,
)
from dihedral_dynamics.errors import NonStabilizationError, VerificationError
from dihedral_dynamics.exact_circle import ClopenSet, GOLDEN, Theta
from dihedral_dynamics.homology import (
    InvolutionModule,
    _bar_boundary,
    _odd_limit,
    _reflection_modules,
    bar_homologies,
    bar_homology,
    coinvariants,
    even_homology,
    free_product_fragment,
    free_product_homology,
    h0_translation_telescope,
    homology_levels,
    homology_table,
    nonfree_action_table,
    odd_homology,
    split_orbit_table,
)
from dihedral_dynamics.systems import (
    FLIP,
    TRANSLATION,
    DenjoyFlipSystem,
    DoubledSystem,
    GroupElement,
    OdometerSystem,
    cover_indices,
    cover_matrix,
    pullback_matrix,
    pullback_permutation,
)

from dense import (columns, dense, dense_columns, from_columns, identity_matrix, mat_sub,
                   sparse)
from lattice_oracles import (
    image_group,
    image_refined_limit,
    kernel_group,
    preimage_lattice,
    subquotient,
)
from test_abgroups import (
    equals_hom,
    lattice_subset,
    reference_snf_diagonal,
    relation_rule,
    solve_integer,
)

Z2 = FGAbGroup(0, (2,))
ZERO = FGAbGroup(0)


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_permutation(module):
    n = module.ncells
    return all(sorted(row[j] for row in module.matrix) == [0] * (n - 1) + [1]
               for j in range(n))


def psi_check(module):
    """Whether [f] -> f + f o a embeds the coinvariants onto the invariant
    functions that are even on fixed cells.

    Only meaningful for permutation modules, where 'even on fixed cells'
    is a lattice condition with explicit generators.
    """
    if not is_permutation(module):
        raise ValueError("psi_check requires a permutation involution")
    ident = identity_matrix(module.ncells)
    plus = mat_add(module.matrix, ident)
    minus = mat_sub(module.matrix, ident)
    # injectivity: kernel of (A + I) inside the coinvariant relations
    for v in kernel_basis(plus):
        if solve_integer(minus, v) is None:
            return False
    # image: exactly the lattice spanned by pair sums and doubled fixed cells
    n = module.ncells
    target_cols = []
    seen = set()
    for j in range(n):
        i = next(r for r in range(n) if module.matrix[r][j])
        if i == j:
            col = [0] * n
            col[j] = 2
            target_cols.append(col)
        elif (j, i) not in seen:
            seen.add((i, j))
            col = [0] * n
            col[i] = col[j] = 1
            target_cols.append(col)
    target = from_columns(target_cols, rows=n)
    return lattice_subset(plus, target) and lattice_subset(target, plus)


class WitnessError(ValueError):
    """A witness set fails its defining identity; ``leftover`` carries the
    exact set difference that broke the check."""

    def __init__(self, message, leftover):
        super().__init__(message)
        self.leftover = leftover


def verify_complementary_witness(system, witness, g):
    """Check X = witness | g(witness) disjointly; raise with the exact gap."""
    image = system.act(g, witness)
    overlap = witness.intersection(image)
    if not overlap.is_empty():
        raise WitnessError(f"witness overlaps its {g} image", leftover=overlap)
    union = witness.union(image)
    full = ClopenSet.full_circle(system.theta)
    if isinstance(system, systems.DoubledSystem):
        full = systems.DoubledClopen(full, full)
    if union != full:
        raise WitnessError(f"witness and its {g} image do not cover",
                           leftover=full.difference(union))
    return True


def random_involutive_permutation(rng, n):
    idx = list(range(n))
    rng.shuffle(idx)
    perm = list(range(n))
    i = 0
    while i + 1 < n:
        if rng.random() < 0.6:
            a, b = idx[i], idx[i + 1]
            perm[a], perm[b] = b, a
            i += 2
        else:
            i += 1
    return perm


def random_involution_module(rng, max_cells):
    n = rng.randint(1, max_cells)
    if rng.random() < 0.7:
        return InvolutionModule.from_permutation(random_involutive_permutation(rng, n))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = rng.choice([1, -1])
    return InvolutionModule.of(mat)


@st.composite
def involutive_permutations(draw, max_cells):
    """A permutation of range(n), n <= max_cells, that swaps a drawn
    number of disjoint pairs."""
    n = draw(st.integers(0, max_cells))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        perm[a], perm[b] = b, a
    return perm


@st.composite
def signed_involutions(draw, max_cells):
    """A signed permutation module that is not a permutation module: each
    orbit of an involutive permutation carries a sign, one of them -1."""
    perm = draw(involutive_permutations(max_cells).filter(bool))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(perm), max_size=len(perm)))
    k = draw(st.integers(0, len(perm) - 1))
    signs[min(k, perm[k])] = -1
    sign = [signs[min(i, p)] for i, p in enumerate(perm)]
    n = len(perm)
    return InvolutionModule.of([[sign[j] if perm[j] == i else 0 for j in range(n)]
                                for i in range(n)])


def smith_route(module):
    """(odd, even, coinvariants) of a module by the kernel/image formulas
    on its matrix: subquotient(A -+ I, A +- I) and coker(A - I)."""
    ident = identity_matrix(module.ncells)
    minus, plus = mat_sub(module.matrix, ident), mat_add(module.matrix, ident)
    return (subquotient(minus, plus), subquotient(plus, minus),
            Presentation.of(module.ncells, sparse(columns(minus))).canonical())


class TestInvolutionFormulas:
    @given(involutive_permutations(10))
    @settings(max_examples=200, deadline=None)
    def test_orbit_counts_match_smith_route(self, perm):
        m = InvolutionModule.from_permutation(perm)
        assert (odd_homology(m), even_homology(m), coinvariants(m)) == smith_route(m)

    @given(signed_involutions(6))
    @settings(max_examples=100, deadline=None)
    def test_signed_modules_take_smith_route(self, m):
        assert (odd_homology(m), even_homology(m), coinvariants(m)) == smith_route(m)

    def test_odd_counts_fixed_cells(self):
        m = InvolutionModule.from_permutation([0, 1, 2, 4, 3])
        assert odd_homology(m) == FGAbGroup(0, (2, 2, 2))

    def test_odd_sign_module(self):
        assert odd_homology(InvolutionModule.of([[-1]])) == ZERO

    def test_odd_free_permutation(self):
        assert odd_homology(InvolutionModule.from_permutation([1, 0, 3, 2])) == ZERO

    def test_even_vanishes_for_permutations(self):
        rng = random.Random(55)
        for _ in range(40):
            m = InvolutionModule.from_permutation(
                random_involutive_permutation(rng, rng.randint(1, 10)))
            assert even_homology(m) == ZERO

    def test_even_sign_module(self):
        assert even_homology(InvolutionModule.of([[-1]])) == Z2

    def test_even_identity(self):
        assert even_homology(InvolutionModule.of(identity_matrix(2))) == ZERO

    def test_odd_fixed_cell_law(self):
        rng = random.Random(56)
        for _ in range(40):
            perm = random_involutive_permutation(rng, rng.randint(1, 10))
            m = InvolutionModule.from_permutation(perm)
            fixed = sum(1 for i, p in enumerate(perm) if p == i)
            assert odd_homology(m) == FGAbGroup(0, (2,) * fixed)

    def test_coinvariants_rank(self):
        rng = random.Random(57)
        for _ in range(40):
            perm = random_involutive_permutation(rng, rng.randint(1, 10))
            m = InvolutionModule.from_permutation(perm)
            fixed = sum(1 for i, p in enumerate(perm) if p == i)
            pairs = (len(perm) - fixed) // 2
            assert coinvariants(m) == FGAbGroup(fixed + pairs)

    def test_coinvariants_identity(self):
        assert coinvariants(InvolutionModule.of(identity_matrix(2))) == FGAbGroup(2)

    def test_involution_validation(self):
        with pytest.raises(ValueError):
            InvolutionModule.of([[2]])
        with pytest.raises(ValueError):
            InvolutionModule.of([[1, 1], [0, 1]])
        # an involution, but not a signed permutation matrix
        with pytest.raises(ValueError, match="signed permutation"):
            InvolutionModule.of([[1, 1], [0, -1]])
        # a signed permutation matrix that is no involution: the signs of a
        # 2-cycle differ
        with pytest.raises(ValueError, match="equal on each 2-cycle"):
            InvolutionModule.of([[0, 1], [-1, 0]])
        m = InvolutionModule.of([[0, -1], [-1, 0]])
        assert (m.perm, m.signs) == ((1, 0), (-1, -1))
        assert (odd_homology(m), even_homology(m), coinvariants(m)) == smith_route(m)

    @pytest.mark.parametrize("perm", [[1, 2, 0], [1, 0, 3, 4, 2], [0, 0], [1, 0, 0], [0, 2],
                                      [-1]],
                             ids=["3-cycle", "3-cycle-after-swap", "repeat",
                                  "repeat-after-swap", "too-big", "negative"])
    def test_permutation_validation(self, perm):
        # a list that is not a permutation of range(n), or whose square is
        # not the identity, is refused without any matrix product
        with pytest.raises(ValueError, match="permutation of range"):
            InvolutionModule.from_permutation(perm)

    def test_permutation_matrices_give_permutation_modules(self):
        rng = random.Random(54)
        for _ in range(40):
            perm = random_involutive_permutation(rng, rng.randint(0, 8))
            module = InvolutionModule.from_permutation(perm)
            assert is_permutation(module)
            assert InvolutionModule.of(module.matrix) == module
        assert InvolutionModule.of([[-1]]).signs == (-1,)
        assert InvolutionModule.of([[-1]]).matrix == ((-1,),)


class TestPsi:
    def test_random_permutation_modules(self):
        rng = random.Random(58)
        for _ in range(100):
            m = InvolutionModule.from_permutation(
                random_involutive_permutation(rng, rng.randint(1, 10)))
            assert psi_check(m)

    def test_requires_permutation(self):
        with pytest.raises(ValueError):
            psi_check(InvolutionModule.of([[-1]]))


def dense_bar_boundary(module, k):
    """The bar boundary d_k as a dense list of rows, written out face by
    face: the reference the sparse rows of ``_bar_boundary`` are checked
    against."""
    n = module.ncells
    mat = [[0] * (n << k) for _ in range(n << (k - 1))]
    perm, signs = module.perm, module.signs
    for w in range(1 << k):
        # the faces after the first leave the cell alone: (row block, sign)
        faces = []
        for i in range(1, k):
            # middle face i: merge letters i and i + 1
            low = w & ((1 << (i - 1)) - 1)
            merged = ((w >> (i - 1)) ^ (w >> i)) & 1
            high = (w >> (i + 1)) << i
            faces.append(((low | (merged << (i - 1)) | high) * n, (-1) ** i))
        # last face: drop g_k
        faces.append(((w & ((1 << (k - 1)) - 1)) * n, (-1) ** k))
        # face 0: move g_1 onto the coefficient, e_c to signs[c] * e_perm[c]
        first = (w >> 1) * n
        for c in range(n):
            col = w * n + c
            if w & 1:
                mat[first + perm[c]][col] += signs[c]
            else:
                mat[first + c][col] += 1
            for block, sign in faces:
                mat[block + c][col] += sign
    return mat


def sparse_rows(mat):
    """{row: {col: nonzero}} of a dense list of rows, every row kept."""
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(mat)}


class TestBarOracle:
    def test_trivial_module_degree_one(self):
        assert bar_homology(InvolutionModule.of([[1]]), 1) == Z2

    def test_even_degrees_vanish_for_permutations(self):
        m = InvolutionModule.from_permutation([0, 2, 1])
        assert bar_homology(m, 2) == ZERO
        assert bar_homology(m, 4) == ZERO

    def test_degree_zero_is_coinvariants(self):
        m = InvolutionModule.from_permutation([1, 0, 2])
        assert bar_homology(m, 0) == coinvariants(m)

    def test_sign_module(self):
        m = InvolutionModule.of([[-1]])
        assert bar_homology(m, 1) == odd_homology(m) == ZERO
        assert bar_homology(m, 2) == even_homology(m) == Z2

    def test_guards(self):
        big = InvolutionModule.of(identity_matrix(9))
        with pytest.raises(ValueError):
            bar_homology(big, 1)
        with pytest.raises(ValueError):
            bar_homology(InvolutionModule.of([[1]]), 7)

    def test_top_allowed_degree(self):
        m = InvolutionModule.of([[1]])
        assert bar_homology(m, 6) == even_homology(m)

    def test_boundary_squares_to_zero(self):
        # d_k * d_{k+1} = 0, multiplied out on the sparse rows
        for m in (InvolutionModule.from_permutation([1, 0, 2]), InvolutionModule.of([[-1]])):
            for k in range(1, 6):
                d_k, _ = _bar_boundary(m, k)
                d_next, (_, cols) = _bar_boundary(m, k + 1)
                for row in d_k.values():
                    prod = [0] * cols
                    for j, x in row.items():
                        for l, y in d_next[j].items():
                            prod[l] += x * y
                    assert not any(prod)

    @given(st.one_of(involutive_permutations(5).map(InvolutionModule.from_permutation),
                     signed_involutions(5)), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_sparse_rows_match_dense_reference(self, m, k):
        rows, shape = _bar_boundary(m, k)
        assert shape == (m.ncells << (k - 1), m.ncells << k)
        assert rows == sparse_rows(dense_bar_boundary(m, k))

    @given(st.one_of(involutive_permutations(8).map(InvolutionModule.from_permutation),
                     signed_involutions(8)), st.integers(1, 7))
    @example(InvolutionModule((1, 0, 2, 4, 3, 5, 6, 7), (-1, -1, 1, 1, 1, -1, -1, 1)), 7)
    @settings(max_examples=50, deadline=None)
    def test_sparse_rows_match_dense_reference_at_full_size(self, m, k):
        # up to the oracle's guards: 8 cells, d_7 of the top degree 6
        rows, shape = _bar_boundary(m, k)
        assert shape == (m.ncells << (k - 1), m.ncells << k)
        assert set(rows) == set(range(shape[0]))
        assert all(x for row in rows.values() for x in row.values())
        assert rows == sparse_rows(dense_bar_boundary(m, k))

    def test_permutation_face_cancels_on_a_negated_fixed_cell(self):
        # d_2 on the odd word 11: the last face puts +1 on row block 1, and
        # face 0 adds signs[c] at row perm[c] of that block
        m = InvolutionModule((1, 0, 2, 3), (1, 1, -1, 1))
        rows, shape = _bar_boundary(m, 2)
        n, col = 4, 3 * 4
        assert col + 2 not in rows[n + 2]           # -1 fixed cell: 1 - 1
        assert rows[n + 3][col + 3] == 2            # +1 fixed cell: 1 + 1
        assert rows[n + 1][col] == rows[n][col + 1] == 1    # the 2-cycle moves
        assert rows[n][col] == rows[n + 1][col + 1] == 1    # and keeps its block
        assert set(rows) == set(range(shape[0]))
        assert rows == sparse_rows(dense_bar_boundary(m, 2))

    def test_transforms_on_a_full_size_boundary(self):
        # d_3 of an 8-cell signed module, 32 x 64: smith_normal_form raises
        # unless its own U * d * V == S, and both modes take one pivot list
        m = InvolutionModule((1, 0, 2, 4, 3, 5, 6, 7), (-1, -1, 1, 1, 1, -1, -1, 1))
        d = dense_bar_boundary(m, 3)
        u, s, v = smith_normal_form(d)
        assert mat_mul(mat_mul(u, d), v) == s
        diag = [s[i][i] for i in range(len(d))]
        assert diag == sparse_snf_diagonal(*_bar_boundary(m, 3)) == reference_snf_diagonal(d)
        assert (abgroups._SparseSmith.of(d, False).pivots
                == abgroups._SparseSmith.of(d, True).pivots)

    @given(st.one_of(involutive_permutations(5).map(InvolutionModule.from_permutation),
                     signed_involutions(5)), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_all_degrees_at_once(self, m, top):
        assert bar_homologies(m, top) == [bar_homology(m, k) for k in range(top + 1)]

    @given(st.one_of(involutive_permutations(3).map(InvolutionModule.from_permutation),
                     signed_involutions(3)), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_boundary_diagonals_match_dense(self, m, k):
        d = dense_bar_boundary(m, k)
        assert sparse_snf_diagonal(*_bar_boundary(m, k)) == reference_snf_diagonal(d)

    def test_boundary_elimination_pops_few_heap_keys(self, monkeypatch):
        # each unit pivot pushes again only the rows of its column, so the
        # unit phase pops a few keys per row; counted, not timed
        pops = []
        heappop = abgroups.heapq.heappop

        def counting(heap):
            pops.append(1)
            return heappop(heap)

        monkeypatch.setattr(abgroups.heapq, "heappop", counting)
        m = InvolutionModule.from_permutation([1, 0, 3, 2, 4, 5, 7, 6])
        for k in (6, 7):
            rows, shape = _bar_boundary(m, k)
            pops.clear()
            sparse_snf_diagonal(rows, shape)
            assert len(pops) <= 8 * shape[0]

    def test_all_degrees_eliminate_each_boundary_once(self, monkeypatch):
        calls = []

        def counting(rows, shape):
            calls.append(shape)
            return sparse_snf_diagonal(rows, shape)

        def dense(mat):
            raise AssertionError("a bar boundary went through the dense entry")

        monkeypatch.setattr(homology, "sparse_snf_diagonal", counting)
        monkeypatch.setattr(homology, "snf_diagonal", dense)
        m = InvolutionModule.from_permutation([1, 0, 2])
        bar_homologies(m, 4)
        # d_1 .. d_5, each C_k -> C_{k-1} of size 3 * 2^(k-1) x 3 * 2^k
        assert calls == [(3 << (k - 1), 3 << k) for k in range(1, 6)]

    def test_all_degrees_guards(self):
        with pytest.raises(ValueError):
            bar_homologies(InvolutionModule.of(identity_matrix(9)), 1)
        with pytest.raises(ValueError):
            bar_homologies(InvolutionModule.of([[1]]), 7)

    def test_matches_formulas_random(self):
        rng = random.Random(59)
        for _ in range(25):
            m = random_involution_module(rng, 6)
            for degree in range(5):
                expected = (coinvariants(m) if degree == 0
                            else odd_homology(m) if degree % 2
                            else even_homology(m))
                assert bar_homology(m, degree) == expected, (m.matrix, degree)


SQUAREFREE = [d for d in range(2, 31) if all(d % (k * k) for k in range(2, 6))]


@st.composite
def quadratic_thetas(draw):
    """theta = (p + q*sqrt(d))/r in (0, 1), with d squarefree and <= 30."""
    d = draw(st.sampled_from(SQUAREFREE))
    q = draw(st.sampled_from([-2, -1, 1, 2]))
    r = draw(st.integers(1, 6))
    # 0 < p + q*sqrt(d) < r for the r integers p from -floor(q*sqrt(d))
    root = isqrt(q * q * d)
    floor_qs = root if q > 0 else -root - 1
    return Theta(p=draw(st.integers(-floor_qs, r - floor_qs - 1)), q=q, d=d, r=r)


def measured_state(cells):
    """The rows (a) and (b) of the exact measures a + b*theta of the cells."""
    measures = [c.measure() for c in cells]
    assert all(m.a.denominator == m.b.denominator == 1 for m in measures)
    return [[int(m.a) for m in measures], [int(m.b) for m in measures]]


def connecting_maps(system, tele, lift=True):
    """The telescope's connecting maps as homs of its stages, which the
    telescope itself reads only through the length states: the inclusions
    of consecutive flip windows, proved with the refinement of the
    reflected windows as lift (an odometer's two windows are one list,
    so its inclusion is its own lift), or with no lift, by solving."""
    chain = system.level_chain(len(tele.stages))
    maps = []
    for a, b, (fa, ca), (fb, cb) in zip(tele.stages, tele.stages[1:], chain, chain[1:]):
        m = cover_matrix(fa, fb)
        lifts = [m if ca is fa else cover_matrix(ca, cb)] if lift else []
        maps.append(AbHom.of(a, b, m, *lifts))
    return maps


class TestTelescope:
    def test_denjoy(self, denjoy):
        tele = h0_translation_telescope(homology_levels(denjoy, 8))
        assert tele.h0 == FGAbGroup(2)
        assert tele.sigma_trivial
        assert tele.h0 == FGAbGroup(2)
        assert tele.limit.kind == "stabilized"

    @pytest.mark.parametrize("theta", [GOLDEN, Theta(p=-1, q=1, d=2, r=1),
                                       Theta(p=-1, q=1, d=3, r=2)],
                             ids=["golden", "sqrt2", "sqrt3"])
    def test_two_arcs_generate(self, theta):
        # [0, theta) and [theta, 0), with the top stage's relations, span
        # the module included from the stage below, hence the limit
        system = DenjoyFlipSystem(theta)
        tele = h0_translation_telescope(homology_levels(system, 8))
        top = tele.stages[-1]
        cells = system.level_chain(len(tele.stages))[-1][0]
        gens = []
        for arc in (ClopenSet.arc(theta, 0, 1), ClopenSet.arc(theta, 1, 0)):
            ix = cover_indices(arc, cells)
            gens.append([int(i in ix) for i in range(len(cells))])
        relations = dense_columns(top.relations, top.ngens)
        span = from_columns(gens + relations, rows=top.ngens)
        conn = connecting_maps(system, tele)[-1]
        incl = dense(conn.matrix, conn.dst.ngens)
        assert lattice_subset(incl, span)
        # one arc alone does not: the limit is Z^2
        alone = from_columns(gens[:1] + relations, rows=top.ngens)
        assert not lattice_subset(incl, alone)

    def test_denjoy_other_theta(self, sqrt2_theta):
        from dihedral_dynamics.systems import DenjoyFlipSystem

        tele = h0_translation_telescope(homology_levels(DenjoyFlipSystem(sqrt2_theta), 8))
        assert tele.sigma_trivial
        assert tele.limit.kind == "stabilized"

    def test_odometer_localization(self, odometer3):
        tele = h0_translation_telescope(homology_levels(odometer3, 5))
        assert tele.limit.kind == "localization"
        assert tele.h0.display == "Z[1/3]"
        assert set(tele.h0.multipliers) == {3}
        assert tele.sigma_trivial
        assert tele.h0.display == "Z[1/3]"

    def test_mixed_chain_multipliers(self):
        from dihedral_dynamics.systems import OdometerSystem

        odo = OdometerSystem([2, 6, 12, 60, 120])
        tele = h0_translation_telescope(homology_levels(odo, 5))
        assert tele.limit.kind == "localization"
        assert tele.h0.multipliers == (3, 2, 5, 2)
        assert tele.h0.display == "Z[1/30]"

    def test_doubled_base_without_flip(self, doubled):
        # the split case reads only h0 of the base circle, where the flip
        # check holds as well
        tele = h0_translation_telescope(homology_levels(doubled.base, 8))
        assert tele.sigma_trivial
        assert tele.h0 == FGAbGroup(2)
        assert tele.h0 == FGAbGroup(2)

    def test_doubling_route_matches_direct_image(self, denjoy):
        # h0 is what the closed form reads for the doubled subgroup (flip
        # verified trivial, 2 Z^2 isomorphic to Z^2); the image of the
        # summed connecting-plus-flip map must agree at deep stages
        tele = h0_translation_telescope(homology_levels(denjoy, 8))
        connecting = connecting_maps(denjoy, tele)
        for idx in (5, 6):
            cells = denjoy.level_chain(idx + 1)[-1][0]
            incl = dense(connecting[idx].matrix, tele.stages[idx + 1].ngens)
            flip = dense(pullback_matrix(FLIP, cells, cells), len(cells))
            plus = mat_add(incl, mat_mul(incl, flip))
            direct = image_group(AbHom.of(tele.stages[idx], tele.stages[idx + 1],
                                          sparse(columns(plus))))
            assert direct == tele.h0

    @pytest.mark.parametrize("system,level", [
        (DenjoyFlipSystem(GOLDEN), 8),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=2, r=1)), 8),
        (OdometerSystem([3 ** i for i in range(1, 6)]), 5),
        (OdometerSystem([2, 6, 12, 60, 120]), 5),
    ], ids=["golden", "sqrt2", "3^i", "mixed"])
    def test_flip_rule_matches_equals_hom(self, system, level):
        # on real stages, the membership rule for incl * (P - I) agrees
        # with comparing the flip hom incl * P with the inclusion, and the
        # rule for incl (the doubled inclusion against the inclusion)
        # agrees as well, with the other outcome
        tele = h0_translation_telescope(homology_levels(system, level))
        cells = [fine for fine, _ in system.level_chain(len(tele.stages))]
        flip_rules, double_rules = [], []
        for i, conn in enumerate(connecting_maps(system, tele)):
            stage = tele.stages[i + 1]
            assert list(conn.matrix) == cover_matrix(cells[i], cells[i + 1])
            incl = dense(conn.matrix, stage.ngens)
            flip = dense(pullback_matrix(FLIP, cells[i], cells[i]), len(cells[i]))
            flipped = mat_mul(incl, flip)
            rule = relation_rule(stage, mat_sub(flipped, incl))
            assert rule == equals_hom(AbHom.of(tele.stages[i], stage, sparse(columns(flipped))),
                                      conn)
            flip_rules.append(rule)
            twice = [[2 * x for x in row] for row in incl]
            rule = relation_rule(stage, incl)
            assert rule == equals_hom(AbHom.of(tele.stages[i], stage, sparse(columns(twice))),
                                      conn)
            double_rules.append(rule)
        assert tele.sigma_trivial and all(flip_rules)
        assert not all(double_rules)

    @pytest.mark.parametrize("localized", [False, True], ids=["golden", "golden-localized"])
    @pytest.mark.parametrize("bent", [0, -2])
    def test_flip_nontrivial_at_one_level(self, monkeypatch, denjoy, localized, bent):
        # a stand-in flip that swaps a cell with one of another length on
        # one level (the first, or the one below the top) moves a class
        # there: the telescope must see it, whether its limit stabilizes or
        # is a localization.  Every permutation of an odometer level's
        # cylinders keeps their measures, so the localization is made here
        # by a stand-in limit of the circle's multipliers.
        level = 8
        size = len(denjoy.level_chain(level)[bent][0])
        permutation = homology.pullback_permutation

        def bent_flip(g, cells):
            perm = permutation(g, cells)
            if g == FLIP and len(cells) == size:
                lengths = columns(measured_state(cells))
                j = next(j for j, x in enumerate(lengths) if x != lengths[0])
                perm[0], perm[j] = perm[j], perm[0]
            return perm

        monkeypatch.setattr(homology, "pullback_permutation", bent_flip)
        if localized:
            monkeypatch.setattr(homology, "multiplier_limit", lambda group, mults: LimitDescriptor(
                kind="localization", localization=LocalizationDescriptor((2,) * len(mults))))
        with pytest.raises(NonStabilizationError, match="flip acts nontrivially"):
            h0_translation_telescope(homology_levels(denjoy, level))

    @pytest.mark.parametrize("run,calls", [
        (lambda s: h0_translation_telescope(homology_levels(s, 14)), 0),
        (lambda s: homology_table(s, 14, "both"), 12),
    ], ids=["telescope", "table"])
    def test_abhom_count(self, monkeypatch, denjoy, run, calls):
        # the telescope proves its inclusions through the length state
        # and builds no hom (13 at golden L14 when each was also proved by
        # a lift); the table adds the free product's 12 H0 maps (its
        # odd-homology limits read GF(2) ranks and build none)
        of = AbHom.of.__func__
        made = []

        def counted(cls, *args):
            made.append(1)
            return of(cls, *args)

        monkeypatch.setattr(AbHom, "of", classmethod(counted))
        run(denjoy)
        assert len(made) == calls

    def test_three_levels_suffice(self, denjoy):
        tele = h0_translation_telescope(homology_levels(denjoy, 3))
        assert tele.h0 == FGAbGroup(2)
        assert tele.stabilized_level() == 1

    def test_undetermined_limit_reports_non_stabilization(self, monkeypatch, denjoy, tmp_path,
                                                          capsys):
        from dihedral_dynamics.cli import main

        # a connecting map that is multiplication by 0 leaves the limit open
        monkeypatch.setattr(homology, "_state_multiplier", lambda *args: 0)
        with pytest.raises(NonStabilizationError, match="undetermined"):
            h0_translation_telescope(homology_levels(denjoy, 8))
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(denjoy.to_json()))
        assert main(["homology", "--system", str(path), "--max-level", "8"]) == 3
        assert "undetermined" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("theta", [GOLDEN, Theta(p=-1, q=1, d=2, r=1),
                                       Theta(p=-1, q=1, d=3, r=2)],
                             ids=["golden", "sqrt2", "sqrt3"])
    def test_circle_stages_are_the_limit(self, theta):
        # relations on the reflected window: every stage is Z^2 and every
        # connecting map an isomorphism, proved with its lift or by solving
        system = DenjoyFlipSystem(theta)
        tele = h0_translation_telescope(homology_levels(system, 8))
        assert all(stage.canonical() == FGAbGroup(2) for stage in tele.stages)
        for lift in (True, False):
            assert all(m.is_isomorphism() for m in connecting_maps(system, tele, lift))
        assert tele.stabilized_level() == 1

    def test_no_image_retry(self, monkeypatch, denjoy):
        # the telescope reads its limit off the state multipliers: neither
        # the odd limits' image retry nor a direct system of stages
        def refuse(*args):
            raise AssertionError("the telescope took a direct-system limit")

        monkeypatch.setattr(homology, "_odd_limit", refuse)
        monkeypatch.setattr(DirectSystem, "limit", refuse)
        assert h0_translation_telescope(homology_levels(denjoy, 8)).h0 == FGAbGroup(2)

    @pytest.mark.parametrize("system,level", [
        (DenjoyFlipSystem(GOLDEN), 8),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=2, r=1)), 8),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=3, r=2)), 8),
        (DoubledSystem(GOLDEN).base, 12),
        (OdometerSystem([3 ** i for i in range(1, 6)]), 5),
        (OdometerSystem([2, 6, 12, 60, 120]), 5),
    ], ids=["golden", "sqrt2", "sqrt3", "doubled-base", "3^i", "mixed"])
    def test_matches_lagged_route(self, system, level):
        tele = h0_translation_telescope(homology_levels(system, level))
        ref = lagged_telescope_limit(system, level)
        assert ref.kind == tele.limit.kind
        assert (ref.group, ref.localization) == (tele.limit.group, tele.limit.localization)

    @pytest.mark.parametrize("system,level,calls", [
        (DenjoyFlipSystem(GOLDEN), 14, 14),
        (OdometerSystem([3 ** i for i in range(1, 5)]), 4, 4),
    ], ids=["golden-L14", "3^i-4"])
    def test_one_smith_form_per_stage(self, monkeypatch, system, level, calls):
        # each stage's canonical form is the telescope's only Smith form:
        # no surjectivity test, relation membership or multiplier adds one
        diagonal = abgroups.sparse_snf_diagonal
        made = []

        def counted(rows, shape):
            made.append(1)
            return diagonal(rows, shape)

        monkeypatch.setattr(abgroups, "sparse_snf_diagonal", counted)
        h0_translation_telescope(homology_levels(system, level))
        assert len(made) == calls

    @settings(max_examples=25, deadline=None)
    @given(quadratic_thetas(), st.integers(4, 10))
    def test_length_state_identities(self, theta, top):
        # the identities the telescope rests on, with the state read off
        # the exact cell measures: at every level it kills the relations,
        # maps onto Z^2 and is kept by the flip, and refinement keeps it.
        # The lagged route's image retry needs three maps, so four levels.
        system = DenjoyFlipSystem(theta)
        tele = h0_translation_telescope(homology_levels(system, top))
        cells = [fine for fine, _ in system.level_chain(top)]
        states = [measured_state(c) for c in cells]
        for stage, state, c in zip(tele.stages, states, cells):
            assert not any(map(any, mat_mul(state, dense(stage.relations, stage.ngens))))
            assert snf_diagonal(state) == [1, 1]
            assert mat_mul(state, dense(pullback_matrix(FLIP, c, c), len(c))) == state
        for conn, coarse, fine in zip(connecting_maps(system, tele), states, states[1:]):
            assert mat_mul(fine, dense(conn.matrix, conn.dst.ngens)) == coarse
        ref = lagged_telescope_limit(system, top)
        assert (ref.kind, ref.group, ref.localization) == (
            tele.limit.kind, tele.limit.group, tele.limit.localization)

    def test_broken_state_identity_fails_verification(self, monkeypatch, denjoy, tmp_path,
                                                      capsys):
        # a state that misses Z^2 (twice the lengths) is an arithmetic
        # fault: exit 4, naming the level, and no fallback route
        from dihedral_dynamics.cli import main

        lengths = systems._CircleCells.length_state
        monkeypatch.setattr(systems._CircleCells, "length_state",
                            lambda self: [[2 * x for x in row] for row in lengths(self)])
        with pytest.raises(VerificationError, match="level 1 is not onto"):
            h0_translation_telescope(homology_levels(denjoy, 8))
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(denjoy.to_json()))
        assert main(["homology", "--system", str(path), "--max-level", "8"]) == 4
        assert "not onto" in json.loads(capsys.readouterr().err)["error"]

    def test_state_alone_catches_a_wrong_inclusion(self, monkeypatch, denjoy, tmp_path,
                                                   capsys):
        # the inclusion of level 3 into level 4 with the columns of two
        # level-3 cells of different lengths swapped: no lift checks it,
        # and the state identity l_4 * incl = l_3 refuses it, naming the
        # level (exit 4)
        from dihedral_dynamics.cli import main

        levels = homology_levels(denjoy, 8)
        fine, coarse, within, up = levels[3]
        lengths = columns(measured_state(levels[2][0]))
        j = next(j for j, x in enumerate(lengths) if x != lengths[0])
        cols = list(up)
        cols[0], cols[j] = cols[j], cols[0]
        levels[3] = (fine, coarse, within, cols)

        with pytest.raises(VerificationError, match="from level 3 to 4 does not scale"):
            h0_translation_telescope(levels)
        # the table builds its levels by name, so the CLI reads this list
        monkeypatch.setattr(homology, "homology_levels", lambda system, max_level: levels)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(denjoy.to_json()))
        assert main(["homology", "--system", str(path), "--max-level", "8"]) == 4
        assert "from level 3 to 4" in json.loads(capsys.readouterr().err)["error"]

    def test_shallowest_working_depth(self, denjoy):
        tele = h0_translation_telescope(homology_levels(denjoy, 4))
        assert tele.h0 == FGAbGroup(2)

    def test_cell_cap_needs_three_levels(self):
        from dihedral_dynamics.systems import OdometerSystem

        with pytest.raises(ValueError):
            h0_translation_telescope(homology_levels(OdometerSystem([600, 1200, 2400]), 3))


def lagged_telescope_limit(system, top):
    """Reference limit of the translation H_0 by the lagged route: stage N
    on the flip window of level N modulo f - f o (1,0) for f on the flip
    window one level down (on its own level for an odometer, which the
    translation permutes), limited with the image retry, since on circles
    every connecting map kills a Z."""
    lag = 0 if isinstance(system, OdometerSystem) else 1
    windows = [system.cells(0, 0)] if lag else []
    windows += [fine for fine, _ in system.level_chain(top)]
    cells = windows[lag:]
    stages = tuple(
        Presentation.of(len(c), sparse(columns(mat_sub(
            dense(cover_matrix(s, c), len(c)),
            dense(pullback_matrix(TRANSLATION, s, c), len(c))))))
        for s, c in zip(windows, cells))
    covers = [cover_matrix(a, b) for a, b in zip(windows, windows[1:])]
    homs = tuple(AbHom.of(a, b, m, w)
                 for a, b, m, w in zip(stages, stages[1:], covers[lag:], covers))
    return image_refined_limit(DirectSystem(stages, homs))


class TestLevelIndexes:
    """Each level window is indexed once, when a system's ``cells`` or
    ``level_chain`` builds it; the level matrices read that index and
    build none."""

    @pytest.mark.parametrize("system,level,windows", [
        (DenjoyFlipSystem(GOLDEN), 14, 28),
        (DenjoyFlipSystem(GOLDEN), 64, 128),
        (OdometerSystem([3 ** i for i in range(1, 5)]), 16, 4),
    ], ids=["golden-L14", "golden-L64", "3^i-4"])
    def test_one_index_per_window(self, monkeypatch, system, level, windows):
        # one chain of levels 1..N serves the telescope and the free
        # product: two circle windows per level, one odometer list
        built = []

        def counting(base):
            class Counting(base):
                def __new__(cls, *args):
                    window = super().__new__(cls, *args)
                    built.append(window)
                    return window
            return Counting

        for name in ("_CircleCells", "_CylinderCells"):
            monkeypatch.setattr(systems, name, counting(getattr(systems, name)))
        homology_table(system, level, "both")
        assert len(built) == windows

    @pytest.mark.parametrize("system,level,method,covers,smith", [
        (DenjoyFlipSystem(GOLDEN), 14, "both", 39, 76),
        (OdometerSystem([3 ** i for i in range(1, 5)]), 16, "both", 9, 17),
        (DoubledSystem(GOLDEN), 12, "closed_form", 23, 12),
    ], ids=["golden-L14", "3^i-4", "doubled-L12-comp"])
    def test_one_inclusion_per_window_pair(self, monkeypatch, system, level, method, covers,
                                           smith):
        # both routes read one level list: per level its windows'
        # inclusion, and the flip window's from the level below; the free
        # product adds only its reflected windows' inclusions. 77 and 14
        # cover matrices were built when each route built its own; the
        # Smith forms are as many as then.  The doubled system's base list
        # is built once, for its telescope alone: one Smith form per stage.
        made = Counter()

        def counting(name, fn):
            def counted(*args):
                made[name] += 1
                return fn(*args)
            return counted

        for module, name in ((homology, "cover_matrix"), (abgroups, "sparse_snf_diagonal")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        homology_table(system, level, method)
        assert (made["cover_matrix"], made["sparse_snf_diagonal"]) == (covers, smith)


class TestFreeProduct:
    def test_denjoy_fragment_level_eight(self, denjoy):
        fine_cells, coarse_cells = denjoy.level_chain(8)[-1]
        msig, mphisig = dense_modules(denjoy, fine_cells, coarse_cells)
        assert odd_homology(msig) == Z2
        assert odd_homology(mphisig) == FGAbGroup(0, (2, 2))
        frag = free_product_fragment(msig, mphisig, cover_matrix(coarse_cells, fine_cells))
        assert frag.h1 == FGAbGroup(0, (2, 2, 2))
        assert frag.paired_injective
        assert frag.middle_exact

    def test_one_cell_system(self):
        trivial = InvolutionModule.of([[1]])
        frag = free_product_fragment(trivial, trivial, sparse([[1]]))
        assert frag.h1 == FGAbGroup(0, (2, 2))
        assert frag.h0 == FGAbGroup(1)

    def test_denjoy_result(self, denjoy):
        fp = free_product_homology(homology_levels(denjoy, 8))
        assert fp.h0 == FGAbGroup(2)
        assert fp.h1 == FGAbGroup(0, (2, 2, 2))
        assert fp.all_injective
        assert fp.all_exact

    def test_odometer_result(self, odometer2):
        fp = free_product_homology(homology_levels(odometer2, 6))
        assert fp.h0.display == "Z[1/2]"
        # finite levels show two flip-fixed cells but only one thread survives
        assert fp.h1 == Z2
        assert fp.all_injective
        assert fp.all_exact


REAL_SYSTEMS = pytest.mark.parametrize("system,level", [
    (DenjoyFlipSystem(GOLDEN), 8),
    (DenjoyFlipSystem(Theta(p=-1, q=1, d=2, r=1)), 8),
    (OdometerSystem([3 ** i for i in range(1, 6)]), 5),
    (OdometerSystem([2, 6, 12, 60, 120]), 5),
], ids=["golden", "sqrt2", "3^i", "mixed"])


def level_modules(system, level):
    """The flip and reflected-flip permutation modules of one level."""
    fine, coarse = system.level_chain(level)[-1]
    return (InvolutionModule.from_permutation(pullback_permutation(FLIP, fine)),
            InvolutionModule.from_permutation(
                pullback_permutation(GroupElement(1, 1), coarse)))


def elementary_two_presentation(n):
    """(Z/2)^n as Z^n modulo 2 * I."""
    return Presentation.of(n, sparse([[2 * (i == j) for i in range(n)] for j in range(n)]))


def fragment_at(system, level):
    """The free-product fragment of one level, its two modules and its
    two windows."""
    fine, coarse = system.level_chain(level)[-1]
    modules = level_modules(system, level)
    return free_product_fragment(*modules, cover_matrix(coarse, fine)), modules, fine, coarse


class TestLifts:
    """The homology sites prove their refinement maps by lift identities;
    every lift they pass must hold, must agree with solving, and a wrong
    lift or wrong relations must be refused."""

    @REAL_SYSTEMS
    def test_every_lift_holds_and_agrees(self, monkeypatch, system, level):
        of = AbHom.of.__func__
        lifted, unlifted = [], []

        def recording(cls, *args):
            (lifted if len(args) == 4 else unlifted).append(args)
            return of(cls, *args)

        monkeypatch.setattr(AbHom, "of", classmethod(recording))
        # the telescope proves its inclusions through the length state
        h0_translation_telescope(homology_levels(system, level))
        assert lifted == []
        try:
            fp = free_product_homology(homology_levels(system, level))
            # per level step: one H0 map
            assert len(lifted) == len(fp.fragments) - 1
        except NonStabilizationError:
            assert lifted
        monkeypatch.undo()
        for src, dst, mat, lift in lifted:
            assert lift_identity(mat, src.relations, dst.relations, lift)
            assert AbHom.of(src, dst, mat).matrix == AbHom.of(src, dst, mat, lift).matrix
        # no map is proved by solving
        assert unlifted == []

    @REAL_SYSTEMS
    def test_wrong_relations_or_lifts_are_refused(self, system, level):
        (frag, lower, fine, coarse), (nxt, upper, fine2, coarse2) = (
            fragment_at(system, t) for t in (3, 4))
        sym, refl = cover_matrix(fine, fine2), cover_matrix(coarse, coarse2)
        h0_map, lift, odd_maps = homology._refinement_maps(lower, upper, sym, refl)
        h0, h0_next = frag.h0_presentation, nxt.h0_presentation
        AbHom.of(h0, h0_next, h0_map, lift)
        # the H0 lift built from the wrong reflection: the flip's pairs on
        # the flip window in place of the reflected flip's on its window
        swapped = homology._refinement_maps(lower[::-1], upper[::-1], refl, sym)[1]
        assert swapped != lift
        with pytest.raises(ValueError, match="relations into relations"):
            AbHom.of(h0, h0_next, h0_map, swapped)
        # the next H0 stage with "- I" deleted from its relations
        # Q * incl * (A - I): Q * incl * e_t(c) for each pair {c, t(c)}
        t2 = upper[1].perm
        projected = homology._on_orbits(upper[0], cover_matrix(coarse2, fine2))
        no_minus_i = Presentation.of(h0_next.ngens, [projected[t2[c]] for c in upper[1].orbits[1]])
        with pytest.raises(ValueError, match="relations into relations"):
            AbHom.of(h0, no_minus_i, h0_map, lift)
        # odd homology on fixed cells: relations 2 * I, so each map is its
        # own lift, and against doubled relations 4 * I it is refused
        # (a reflection without fixed cells has nothing to double)
        for k, induced in enumerate(odd_maps):
            a, b = (elementary_two_presentation(len(m[k].orbits[2])) for m in (lower, upper))
            AbHom.of(a, b, induced, induced)
            doubled = Presentation.of(b.ngens, [{i: 2 * x for i, x in col.items()}
                                                for col in b.relations])
            if not b.ngens:
                assert doubled == b and not a.ngens
                continue
            with pytest.raises(ValueError, match="relations into relations"):
                AbHom.of(a, doubled, induced, induced)

    @pytest.mark.parametrize("system,run", [
        (DenjoyFlipSystem(GOLDEN), lambda s: h0_translation_telescope(homology_levels(s, 14))),
        (DenjoyFlipSystem(GOLDEN), lambda s: homology_table(s, 14, "both")),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=2, r=1)), lambda s: homology_table(s, 10, "both")),
        (OdometerSystem([2 ** i for i in range(1, 7)]), lambda s: homology_table(s, 16, "both")),
        (OdometerSystem([3 ** i for i in range(1, 5)]), lambda s: homology_table(s, 16, "both")),
    ], ids=["telescope", "table", "sqrt2-L10", "2^i-6", "3^i-4"])
    def test_relation_solver_count(self, monkeypatch, system, run):
        # relation membership (the flip rule, and the maps without a lift
        # on the 2^i odd-homology images) is decided by Smith diagonals, so
        # no transform-tracking solver is built (14, 14, 10, 8 and 3 were
        # built when membership was solved)
        init = SnfSolver.__init__
        built = []

        def counted(self, mat):
            built.append(1)
            init(self, mat)

        monkeypatch.setattr(SnfSolver, "__init__", counted)
        run(system)
        assert built == []
        # the count sees a solver where one is built (the lattice oracle)
        subquotient([[0]], [[0]])
        assert built == [1]


def refuse_transforms(monkeypatch):
    """Make every transform-tracking Smith form raise."""
    smith = abgroups._SparseSmith

    class DiagonalOnly(smith):
        def __init__(self, rows, shape, track):
            if track:
                raise AssertionError("transform-tracking Smith form")
            super().__init__(rows, shape, track)

    monkeypatch.setattr(abgroups, "_SparseSmith", DiagonalOnly)


GUARDED_SYSTEMS = {
    "golden": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 5, "r": 2}},
    "2^i": {"type": "odometer", "base": 2, "growth": "geometric", "levels": 8},
    "3^i": {"type": "odometer", "base": 3, "growth": "geometric", "levels": 6},
}


class TestNoTransformTracking:
    """No command builds a Smith form with transforms: signed modules are
    read off orbit counts and odd-homology limits off GF(2) ranks."""

    @pytest.mark.parametrize("command", ["oracle-check", *GUARDED_SYSTEMS])
    def test_cli_paths(self, monkeypatch, capsys, tmp_path, command):
        from dihedral_dynamics.cli import main

        refuse_transforms(monkeypatch)
        with pytest.raises(AssertionError, match="transform-tracking"):
            kernel_basis([[1]])
        if command == "oracle-check":
            argv = ["oracle-check", "--seed", "0", "--count", "100"]
        else:
            path = tmp_path / "system.json"
            path.write_text(json.dumps(GUARDED_SYSTEMS[command]))
            argv = ["homology", "--system", str(path), "--method", "both"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


def random_odd_system(rng):
    """Sizes 0..5 of 3 to 7 stages (Z/2)^size and 0/1 maps between them:
    a size repeats half the time, and a map between equal sizes is then a
    permutation (an isomorphism) half the time; any other map has random
    entries."""
    sizes = [rng.randint(0, 5)]
    for _ in range(rng.randint(2, 6)):
        sizes.append(sizes[-1] if rng.random() < 0.5 else rng.randint(0, 5))
    maps = []
    for a, b in zip(sizes, sizes[1:]):
        if a == b and rng.random() < 0.5:
            order = rng.sample(range(a), a)
            rows = [[int(order[j] == i) for j in range(a)] for i in range(b)]
        else:
            rows = [[rng.randint(0, 1) for _ in range(a)] for _ in range(b)]
        maps.append(sparse(columns(rows, a)))
    return sizes, maps


def odd_direct_system(sizes, maps):
    """The stages as presented groups, each map its own lift."""
    stages = tuple(elementary_two_presentation(n) for n in sizes)
    return DirectSystem(stages, tuple(
        AbHom.of(a, b, m, m) for a, b, m in zip(stages, stages[1:], maps)))


class TestOddLimit:
    """Odd-homology limits from GF(2) ranks against the system of images
    built from preimage lattices."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_image_refined_limit(self, rng):
        sizes, maps = random_odd_system(rng)
        assert _odd_limit(sizes, maps) == image_refined_limit(odd_direct_system(sizes, maps))

    def test_draws_reach_every_verdict(self):
        # systems stabilized at once, settled only by the image retry, and
        # left undetermined all occur among the draws
        rng = random.Random(9)
        verdicts = Counter()
        for _ in range(200):
            sizes, maps = random_odd_system(rng)
            ds = odd_direct_system(sizes, maps)
            refined = image_refined_limit(ds)
            assert _odd_limit(sizes, maps) == refined
            verdicts["direct" if ds.limit().kind == "stabilized" else refined.kind] += 1
        assert min(verdicts[k] for k in ("direct", "stabilized", "undetermined")) >= 10, verdicts

    def test_vanishing_fixed_cell(self):
        # the 2^i odometer's flip: cells {0, 2^(i-1)} fixed at every level,
        # the second with no fixed refinement, so the limit is Z/2
        limit = _odd_limit([2, 2, 2, 2], [sparse([[1, 0], [0, 0]])] * 3)
        assert (limit.kind, limit.group, limit.level) == ("stabilized", Z2, 2)

    def test_image_retry_needs_the_composite_rank(self):
        # every map has rank 1, but each composite of two is zero, so the
        # images never settle: without the rank of the composite the
        # retry would read Z/2
        sizes, maps = [2, 2, 2, 2], [sparse(m) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]],
                                                        [[1, 0], [0, 0]])]
        limit = _odd_limit(sizes, maps)
        assert (limit.kind, limit.group, limit.level) == ("undetermined", None, 4)
        assert limit == image_refined_limit(odd_direct_system(sizes, maps))


def lattice_fragment_flags(msigma, mphisigma, inclusion):
    """``paired_injective`` and ``middle_exact`` from kernel lattices: the
    kernel of the paired map, and the kernel of the summed map compared
    with the image of the paired map in both directions."""
    n_fine, n_coarse = msigma.ncells, mphisigma.ncells
    inclusion = dense(inclusion, n_fine)
    a_minus = [mat_sub(m.matrix, identity_matrix(m.ncells)) for m in (msigma, mphisigma)]
    middle = Presentation.of(
        n_fine + n_coarse, sparse(
            [col + [0] * n_coarse for col in columns(a_minus[0])]
            + [[0] * n_fine + col for col in columns(a_minus[1])]))
    paired = [list(row) for row in inclusion] + [
        [-x for x in row] for row in identity_matrix(n_coarse)]
    paired_injective = kernel_group(
        AbHom.of(Presentation(n_coarse, ()), middle, sparse(columns(paired)))).is_trivial()
    h0_relations = from_columns(
        columns(a_minus[0]) + columns(mat_mul(inclusion, a_minus[1])), rows=n_fine)
    summed = [e + list(row) for e, row in zip(identity_matrix(n_fine), inclusion)]
    kernel_lat = preimage_lattice(summed, h0_relations)
    image_lat = from_columns(columns(paired) + dense_columns(middle.relations, middle.ngens),
                             rows=n_fine + n_coarse)
    middle_exact = lattice_subset(kernel_lat, image_lat) and lattice_subset(image_lat, kernel_lat)
    return paired_injective, middle_exact


def random_fragment_input(rng):
    """Permutation modules on 1..6 fine and 1..4 coarse cells, joined by a
    zero, a random-integer or a partition inclusion (each coarse cell a
    disjoint union of fine cells), given by its sparse columns."""
    n_fine, n_coarse = rng.randint(1, 6), rng.randint(1, 4)
    msigma = InvolutionModule.from_permutation(random_involutive_permutation(rng, n_fine))
    mphisigma = InvolutionModule.from_permutation(random_involutive_permutation(rng, n_coarse))
    kind = rng.choice(["zero", "integer", "partition"])
    inclusion = [[0] * n_coarse for _ in range(n_fine)]
    if kind == "integer":
        inclusion = [[rng.randint(-2, 2) for _ in range(n_coarse)] for _ in range(n_fine)]
    elif kind == "partition":
        for i in range(n_fine):
            j = rng.randrange(n_coarse + 1)
            if j < n_coarse:
                inclusion[i][j] = 1
    return msigma, mphisigma, sparse(columns(inclusion))


class TestFragmentFlags:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_match_lattice_route(self, rng):
        msigma, mphisigma, inclusion = random_fragment_input(rng)
        frag = free_product_fragment(msigma, mphisigma, inclusion)
        assert (frag.paired_injective, frag.middle_exact) == lattice_fragment_flags(
            msigma, mphisigma, inclusion)

    def test_both_verdicts_occur(self):
        rng = random.Random(8)
        verdicts = []
        for _ in range(100):
            msigma, mphisigma, inclusion = random_fragment_input(rng)
            frag = free_product_fragment(msigma, mphisigma, inclusion)
            assert (frag.paired_injective, frag.middle_exact) == lattice_fragment_flags(
                msigma, mphisigma, inclusion)
            verdicts.append(frag.paired_injective)
        assert 10 <= verdicts.count(False) <= 90, verdicts.count(False)

    def test_no_kernel_lattices(self, monkeypatch, denjoy):
        refuse_transforms(monkeypatch)
        p = Presentation.of(2, sparse([(0, 4)]))
        maps = (AbHom.of(p, p, sparse(columns([[1, 0], [0, 3]]))),
                AbHom.of(p, p, sparse(columns([[1, 0], [2, 1]]))))
        assert DirectSystem((p, p, p), maps).limit().level == 1
        fine, coarse = denjoy.level_chain(6)[-1]
        frag = free_product_fragment(*dense_modules(denjoy, fine, coarse),
                                     cover_matrix(coarse, fine))
        assert frag.paired_injective and frag.middle_exact

    def test_middle_exact_checks_relations_column_for_column(self, monkeypatch, denjoy):
        # negating one H0 relation (on flip orbits) keeps the group, so the
        # canonical forms still agree, but the summed map no longer sends
        # the paired columns onto the H0 relations column for column
        orbit_h0 = homology._orbit_coinvariants

        def negated_first(*args):
            pres = orbit_h0(*args)
            k = next(k for k, col in enumerate(pres.relations) if col)
            rels = list(pres.relations)
            rels[k] = {i: -x for i, x in rels[k].items()}
            return Presentation.of(pres.ngens, rels)

        fine, coarse = denjoy.level_chain(6)[-1]
        modules = (*dense_modules(denjoy, fine, coarse), cover_matrix(coarse, fine))
        assert free_product_fragment(*modules).middle_exact
        monkeypatch.setattr(homology, "_orbit_coinvariants", negated_first)
        frag = free_product_fragment(*modules)
        assert frag.h0 == total_coinvariants(*modules).canonical()
        assert not frag.middle_exact

    def test_middle_exact_compares_canonical_forms(self, monkeypatch, denjoy):
        # one more free generator on H0 leaves the column-for-column
        # identity intact (the summed map never reaches it), so only the
        # canonical forms of C and H0 can tell that the sequence is wrong
        orbit_h0 = homology._orbit_coinvariants

        def extra_generator(*args):
            pres = orbit_h0(*args)
            return Presentation.of(pres.ngens + 1, pres.relations)

        monkeypatch.setattr(homology, "_orbit_coinvariants", extra_generator)
        fine, coarse = denjoy.level_chain(6)[-1]
        frag = free_product_fragment(*level_modules(denjoy, 6), cover_matrix(coarse, fine))
        assert frag.paired_injective
        assert not frag.middle_exact


def dense_modules(system, fine, coarse):
    """The flip's and the reflected flip's modules of a level, read off
    their dense pullback matrices."""
    return tuple(InvolutionModule.of(dense(pullback_matrix(g, cells, cells), len(cells)))
                 for g, cells in ((FLIP, fine), (GroupElement(1, 1), coarse)))


def total_coinvariants(msigma, mphisigma, inclusion):
    """Reference H_0 on all fine cells: the fine module modulo f - f o sigma
    and the included g - g o phisigma, for the inclusion's sparse columns."""
    minus = [mat_sub(m.matrix, identity_matrix(m.ncells)) for m in (msigma, mphisigma)]
    inclusion = dense(inclusion, msigma.ncells)
    return Presentation.of(msigma.ncells, sparse(
        columns(minus[0]) + columns(mat_mul(inclusion, minus[1]))))


def kernel_quotient(kernel_of, image_of):
    """ker(kernel_of) / im(image_of) presented on a kernel basis: the
    presentation, the basis as matrix columns, and a solver for
    coordinates in that basis."""
    kb = kernel_basis(kernel_of)
    basis = from_columns(kb, rows=len(kernel_of[0]))
    solver = SnfSolver(basis)
    coords = [solver.solve(col) for col in columns(image_of)]
    assert None not in coords
    return Presentation.of(len(kb), sparse(coords)), basis, solver


def full_cell_limits(system, levels):
    """Reference limits of the free-product assembly on all cells, with
    Smith forms: H0 on the total coinvariants of the fine cells, lifted
    by the block diagonal of the two window inclusions, and per
    reflection the limit of ker(A - I) / im(A + I) on kernel bases,
    lifted by its inclusion."""
    windows = [system.level_chain(t)[-1] for t in levels]
    flips = [(dense(pullback_matrix(FLIP, fine, fine), len(fine)),
              dense(pullback_matrix(GroupElement(1, 1), coarse, coarse), len(coarse)))
             for fine, coarse in windows]
    h0_stages = tuple(
        total_coinvariants(InvolutionModule.of(a), InvolutionModule.of(b), cover_matrix(c, f))
        for (a, b), (f, c) in zip(flips, windows))
    incls = [(dense(cover_matrix(f1, f2), len(f2)), dense(cover_matrix(c1, c2), len(c2)))
             for (f1, c1), (f2, c2) in zip(windows, windows[1:])]
    h0_limit = DirectSystem(h0_stages, tuple(
        AbHom.of(a, b, sparse(columns(m)), sparse(columns(block_diag(m, r))))
        for a, b, (m, r) in zip(h0_stages, h0_stages[1:], incls))).limit()
    odd_stages, odd_limits = [], []
    for k in (0, 1):
        quotients = [kernel_quotient(mat_sub(f[k], identity_matrix(len(f[k]))),
                                     mat_add(f[k], identity_matrix(len(f[k]))))
                     for f in flips]
        homs = []
        for (a, basis, _), (b, _, solver), incl in zip(quotients, quotients[1:], incls):
            induced = [solver.solve(col) for col in columns(mat_mul(incl[k], basis))]
            homs.append(AbHom.of(a, b, sparse(induced), sparse(columns(incl[k]))))
        odd_stages.append(tuple(q[0] for q in quotients))
        odd_limits.append(image_refined_limit(DirectSystem(odd_stages[-1], tuple(homs))))
    return h0_stages, h0_limit, odd_stages, odd_limits


def block_diag(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[0] * (ca + cb) for _ in range(ra + rb)]
    for i in range(ra):
        out[i][:ca] = list(a[i])
    for i in range(rb):
        out[ra + i][ca:] = list(b[i])
    return out


def block_diagonal_h1(system, max_level):
    """Reference H_1 of the free-product assembly: the odd homologies of
    the block-diagonal modules that carry both reflections at once, along
    the block-diagonal inclusions, in one limit."""
    windows = system.level_chain(max_level)[1:]
    stages, bases = [], []
    for fine, coarse in windows:
        a = block_diag(dense(pullback_matrix(FLIP, fine, fine), len(fine)),
                       dense(pullback_matrix(GroupElement(1, 1), coarse, coarse),
                             len(coarse)))
        n = len(a)
        stage, basis, solver = kernel_quotient(mat_sub(a, identity_matrix(n)),
                                               mat_add(a, identity_matrix(n)))
        stages.append(stage)
        bases.append((basis, solver))
    homs = []
    for i, ((f1, c1), (f2, c2)) in enumerate(zip(windows, windows[1:])):
        incl = block_diag(dense(cover_matrix(f1, f2), len(f2)),
                          dense(cover_matrix(c1, c2), len(c2)))
        solver = bases[i + 1][1]
        cols = [solver.solve(col) for col in columns(mat_mul(incl, bases[i][0]))]
        assert None not in cols
        homs.append(AbHom.of(stages[i], stages[i + 1], sparse(cols)))
    limit = image_refined_limit(DirectSystem(tuple(stages), tuple(homs)))
    return limit.group if limit.kind == "stabilized" else None


def split_h1(system, max_level):
    """free_product_homology's H_1, or None where it is still moving."""
    try:
        return free_product_homology(homology_levels(system, max_level)).h1
    except NonStabilizationError as exc:
        assert "H1" in str(exc)
        return None


class TestOrbitRoute:
    """The free product in orbit coordinates against the Smith route on
    all cells."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_fragment_matches_full_cell_route(self, rng):
        msigma, mphisigma, inclusion = random_fragment_input(rng)
        frag = free_product_fragment(msigma, mphisigma, inclusion)
        assert frag.h0 == total_coinvariants(msigma, mphisigma, inclusion).canonical()
        odd = [subquotient(mat_sub(m.matrix, identity_matrix(m.ncells)),
                           mat_add(m.matrix, identity_matrix(m.ncells)))
               for m in (msigma, mphisigma)]
        assert [odd_homology(m) for m in (msigma, mphisigma)] == odd
        assert all(g == FGAbGroup.elementary_two(len(g.torsion)) for g in odd)
        assert frag.h1 == FGAbGroup(0, odd[0].torsion + odd[1].torsion)
        assert (frag.paired_injective, frag.middle_exact) == lattice_fragment_flags(
            msigma, mphisigma, inclusion)

    @REAL_SYSTEMS
    def test_limits_match_full_cell_route(self, system, level):
        # every level here is within the 512-cell cap, so the assembly
        # runs to the requested level (3^i: 243 cells at level 5)
        top = len(homology_levels(system, level))
        assert top == level
        levels = list(range(2, top + 1))
        h0_stages, h0_limit, odd_stages, odd_limits = full_cell_limits(system, levels)
        for i, level in enumerate(levels):
            frag, modules, _, _ = fragment_at(system, level)
            assert frag.h0 == h0_stages[i].canonical(), level
            assert [odd_homology(m) for m in modules] == [
                odd_stages[0][i].canonical(), odd_stages[1][i].canonical()], level
        try:
            fp = free_product_homology(homology_levels(system, level))
        except NonStabilizationError as exc:
            # the mixed chain: an odd-homology limit is still moving
            assert "H1" in str(exc)
            assert h0_limit.kind != "undetermined"
            assert any(lim.kind != "stabilized" for lim in odd_limits)
            return
        if h0_limit.kind == "stabilized":
            assert (fp.h0, fp.stabilized_at) == (h0_limit.group, levels[h0_limit.level - 1])
        else:
            assert h0_limit.kind == "localization" and fp.h0 == h0_limit.localization
        assert all(lim.kind == "stabilized" for lim in odd_limits)
        assert all(lim.group == FGAbGroup.elementary_two(len(lim.group.torsion))
                   for lim in odd_limits)
        assert fp.h1 == FGAbGroup(0, odd_limits[0].group.torsion + odd_limits[1].group.torsion)

    def test_builds_no_dense_modules(self, monkeypatch, denjoy):
        # no dense pullback or involution matrix, and no kernel basis (the
        # Smith route of the odd homologies) on the free-product path
        def refuse(*args):
            raise AssertionError("dense route used")

        monkeypatch.setattr(homology, "pullback_matrix", refuse)
        monkeypatch.setattr(InvolutionModule, "of", classmethod(refuse))
        monkeypatch.setattr(InvolutionModule, "matrix", property(refuse))
        monkeypatch.setattr(abgroups, "kernel_basis", refuse)
        fp = free_product_homology(homology_levels(denjoy, 8))
        assert (fp.h0, fp.h1) == (FGAbGroup(2), FGAbGroup(0, (2, 2, 2)))

    def test_fragment_refuses_signed_modules(self):
        sign, trivial = InvolutionModule.of([[-1]]), InvolutionModule.from_permutation([0])
        for pair in ((sign, trivial), (trivial, sign)):
            with pytest.raises(ValueError, match="permutation modules"):
                free_product_fragment(*pair, sparse([[1]]))


class TestSplitH1:
    """The sum of the two reflections' limits against the block-diagonal
    route, on every level where either is computed."""

    @pytest.mark.parametrize("theta", [GOLDEN, Theta(p=-1, q=1, d=2, r=1),
                                       Theta(p=-1, q=1, d=3, r=2)],
                             ids=["golden", "sqrt2", "sqrt3"])
    def test_circles(self, theta):
        system = DenjoyFlipSystem(theta)
        for level in range(4, 11):
            h1 = split_h1(system, level)
            assert h1 is not None and h1 == block_diagonal_h1(system, level), level

    @pytest.mark.parametrize("chain,depth", [
        ([2 ** i for i in range(1, 10)], 7),
        ([3 ** i for i in range(1, 8)], 4),
    ], ids=["2^i", "3^i"])
    def test_odometers(self, chain, depth):
        # depth: the last level of at most 128 cells, which keeps the dense
        # block-diagonal route small; the assembly itself goes on to 512
        system = OdometerSystem(chain)
        results = [(split_h1(system, level), block_diagonal_h1(system, level))
                   for level in range(4, depth + 1)]
        assert all(split == block for split, block in results), results
        assert results[-1][0] is not None


def eager_limit(ds):
    """Reference DirectSystem.limit that tests every map for isomorphism."""
    iso = [h.is_isomorphism() for h in ds.maps]
    if iso and iso[-1]:
        start = len(iso)
        while start > 0 and iso[start - 1]:
            start -= 1
        if start < len(iso):
            return LimitDescriptor(kind="stabilized", group=ds.stages[start].canonical(),
                                   level=start + 1)
    mults = [h.free_multiplier() for h in ds.maps]
    if all(m is not None and m >= 1 for m in mults) and any(m > 1 for m in mults):
        return LimitDescriptor(kind="localization",
                               localization=LocalizationDescriptor(tuple(mults)))
    return LimitDescriptor(kind="undetermined", level=len(ds.stages))


SHAPES = [Presentation(1, ()), Presentation.of(1, sparse([(4,)])), Presentation(2, ()),
          Presentation.of(2, sparse([(0, 2)]))]


@st.composite
def direct_systems(draw):
    """Direct systems of 3 to 6 stages whose maps are isomorphisms,
    non-isomorphisms, or Z -> Z multipliers."""
    length = draw(st.integers(3, 6))
    if draw(st.booleans()):
        stages = (Presentation(1, ()),) * length
        mats = [[[draw(st.sampled_from([1, -1, 1, 2, 3, 0]))]] for _ in range(length - 1)]
    else:
        stages = tuple(draw(st.sampled_from(SHAPES)) for _ in range(length))
        mats = []
        for src, dst in zip(stages, stages[1:]):
            if src == dst and draw(st.booleans()):
                mats.append(identity_matrix(src.ngens))
            else:
                mats.append([[draw(st.integers(-2, 2)) for _ in range(src.ngens)]
                             for _ in range(dst.ngens)])
    maps = []
    for src, dst, mat in zip(stages, stages[1:], mats):
        try:
            maps.append(AbHom.of(src, dst, sparse(columns(mat))))
        except ValueError:
            maps.append(AbHom.of(src, dst, sparse(columns(
                [[0] * src.ngens for _ in range(dst.ngens)]))))
    return DirectSystem(stages, tuple(maps))


def _z_system(multipliers):
    z = Presentation(1, ())
    return DirectSystem((z,) * (len(multipliers) + 1),
                        tuple(AbHom.of(z, z, sparse([[m]])) for m in multipliers))


class TestTopDownLimit:
    @given(direct_systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_eager_scan(self, ds):
        assert ds.limit() == eager_limit(ds)

    def test_kinds_covered(self):
        assert _z_system([2, 1, 1]).limit().kind == "stabilized"
        assert _z_system([1, 3, 2]).limit().kind == "localization"
        assert _z_system([1, 0, 2]).limit().kind == "undetermined"

    def test_no_multipliers_is_undetermined(self):
        limit = multiplier_limit(FGAbGroup(1), [])
        assert (limit.kind, limit.level, limit.localization) == ("undetermined", 1, None)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, 0]), min_size=2, max_size=5))
    def test_multiplier_limit_follows_direct_system(self, multipliers):
        # the telescope's limit from its state multipliers takes the rule
        # DirectSystem.limit takes on the same maps of Z
        assert multiplier_limit(FGAbGroup(1), multipliers) == _z_system(multipliers).limit()

    @pytest.mark.parametrize("multipliers,calls", [
        ([1, 1, 1, 2], 1),
        ([2, 1, 1, 1], 4),
        ([1, 1, 2, 1], 2),
    ])
    def test_scan_stops_at_first_non_isomorphism(self, monkeypatch, multipliers, calls):
        seen = []
        original = AbHom.is_isomorphism

        def counted(self):
            seen.append(self)
            return original(self)

        monkeypatch.setattr(AbHom, "is_isomorphism", counted)
        ds = _z_system(multipliers)
        ds.limit()
        assert len(seen) == calls
        assert seen == list(reversed(ds.maps))[:calls]


@dataclass(frozen=True)
class TransferReport:
    kernel: FGAbGroup
    injective: bool
    image: FGAbGroup
    onto_plus: bool


def transfer_kernel(tr_map, target_plus):
    """Kernel and image of the summed-over-flip map out of the total
    coinvariants, compared against the doubled translation classes."""
    kernel, image = kernel_group(tr_map), image_group(tr_map)
    return TransferReport(kernel, kernel.is_trivial(), image, image == target_plus)


def transfer_report(system, max_level):
    """The transfer at the top level of the telescope, into the stage of
    that level by f -> f + f o flip: an orbit to its indicator, a fixed
    cell to twice its own."""
    tele = h0_translation_telescope(homology_levels(system, max_level))
    level = len(tele.stages)
    cells, coarse = system.level_chain(level)[-1]
    msig, mphisig = _reflection_modules(cells, coarse)
    h0_gamma = free_product_fragment(msig, mphisig, cover_matrix(coarse, cells)).h0_presentation
    label = msig.orbits[0]
    tr_matrix = [[(label[i] == o) * (1 + (msig.perm[i] == i)) for o in range(h0_gamma.ngens)]
                 for i in range(len(cells))]
    return transfer_kernel(AbHom.of(h0_gamma, tele.stages[level - 1], sparse(columns(tr_matrix))),
                           tele.h0)


class TestTransfer:
    def test_denjoy_kernel_trivial(self, denjoy):
        # the flip has a fixed point, so the kernel vanishes and the image
        # realizes the doubled translation classes
        rep = transfer_report(denjoy, 8)
        assert rep.kernel == ZERO
        assert rep.injective
        assert rep.image == FGAbGroup(2)
        assert rep.onto_plus

    def test_witness_rejection_with_gap(self, denjoy, golden):
        k = ClopenSet.arc(golden, 0, 1)
        with pytest.raises(WitnessError) as err:
            verify_complementary_witness(denjoy, k, FLIP)
        assert err.value.leftover is not None
        assert not err.value.leftover.is_empty()

    def test_witness_accepted_for_doubled(self, doubled, golden):
        from dihedral_dynamics.systems import DoubledClopen

        k = DoubledClopen(ClopenSet.full_circle(golden), ClopenSet.empty(golden))
        assert verify_complementary_witness(doubled, k, FLIP)

    def test_synthetic_free_case(self):
        # the order-2 class (1,-1) in Z^2 modulo (2,-2)
        middle = Presentation.of(2, sparse([(2, -2)]))
        witness = AbHom.of(Presentation(1, ()), middle, sparse(columns([[1], [-1]])))
        assert image_group(witness) == Z2
        assert middle.contains_relations(sparse([[2, -2]]))
        assert not middle.contains_relations(sparse([[1, -1]]))
        tr = AbHom.of(middle, Presentation(1, ()), sparse(columns([[1, 1]])))
        report = transfer_kernel(tr, FGAbGroup(1))
        assert report.kernel == Z2
        assert not report.injective
        assert report.image == FGAbGroup(1)


class TestTables:
    def test_case_split_orbit(self):
        table = split_orbit_table(FGAbGroup(2))
        assert table.entry(0) == FGAbGroup(2)
        assert table.entry(1) == FGAbGroup(1)
        assert table.entry(2) == ZERO
        assert table.entry(17) == ZERO

    def test_case_nonfree_requires_fixed_points(self):
        with pytest.raises(ValueError):
            nonfree_action_table(FGAbGroup(2), 0)

    def test_denjoy_table(self, denjoy):
        table, prov = homology_table(denjoy, max_level=8)
        assert table.entry(0) == FGAbGroup(2)
        for n in (1, 3, 5, 11):
            assert table.entry(n) == FGAbGroup(0, (2, 2, 2))
        for n in (2, 4, 10):
            assert table.entry(n) == ZERO
        assert prov["case"] == "not_free"
        assert prov["fixedPoints"] == {"sigma": 1, "phiSigma": 2}
        assert prov["sigmaTrivialOnH0"]

    def test_denjoy_two_path(self, denjoy):
        table, prov = homology_table(denjoy, max_level=8, method="both")
        assert prov["delta"] == {}
        fp_table, _ = homology_table(denjoy, max_level=8, method="freeproduct")
        assert fp_table.entry(0) == table.entry(0)
        assert fp_table.entry(1) == table.entry(1)

    def test_other_theta_full_table(self, sqrt2_theta):
        from dihedral_dynamics.systems import DenjoyFlipSystem

        system = DenjoyFlipSystem(sqrt2_theta)
        table, prov = homology_table(system, max_level=8, method="both")
        assert table.entry(0) == FGAbGroup(2)
        assert table.entry(1) == FGAbGroup(0, (2, 2, 2))
        assert prov["delta"] == {}
        assert prov["freeproduct"]["pairedInjective"]
        assert prov["freeproduct"]["middleExact"]

    def test_doubled_table(self, doubled):
        table, prov = homology_table(doubled, max_level=8)
        assert table.entry(0) == FGAbGroup(2)
        assert table.entry(1) == FGAbGroup(1)
        for n in (2, 3, 4, 12):
            assert table.entry(n) == ZERO
        assert prov["case"] == "translation_not_minimal"

    def test_doubled_rejects_freeproduct_method(self, doubled):
        with pytest.raises(ValueError):
            homology_table(doubled, max_level=8, method="freeproduct")

    def test_odometer_tables(self, odometer3, odometer2):
        table3, prov3 = homology_table(odometer3, max_level=6)
        assert table3.entry(0).display == "Z[1/3]"
        assert table3.entry(1) == FGAbGroup(0, (2, 2))
        assert table3.entry(2) == ZERO
        assert prov3["fixedThreads"]["sigma"]["count"] == 1
        assert prov3["fixedThreads"]["phiSigma"]["count"] == 1
        table2, prov2 = homology_table(odometer2, max_level=8)
        assert table2.entry(0).display == "Z[1/2]"
        assert table2.entry(1) == Z2
        assert prov2["fixedThreads"]["phiSigma"]["count"] == 0

    def test_odometer_two_path(self, odometer2):
        _, prov = homology_table(odometer2, max_level=6, method="both")
        assert prov["delta"] == {}

    def test_method_validation(self, denjoy):
        with pytest.raises(ValueError):
            homology_table(denjoy, method="magic")

    def test_table_json_shape(self, denjoy):
        table, _ = homology_table(denjoy, max_level=8)
        data = table.to_json()
        assert set(data) == {"H0", "H1", "H2", "H3", "H4", "H5", "tail"}
        assert data["H0"] == {"rank": 2, "torsion": []}
        assert data["H1"] == {"rank": 0, "torsion": [2, 2, 2]}
        assert data["tail"] == {"odd": {"rank": 0, "torsion": [2, 2, 2]},
                                "even": {"rank": 0, "torsion": []}, "from": 1}


class TestLemmaSequenceChecks:
    def test_exactness_small_levels(self, denjoy):
        fp = free_product_homology(homology_levels(denjoy, 6))
        for level, frag in fp.fragments:
            assert frag.paired_injective, level
            assert frag.middle_exact, level
