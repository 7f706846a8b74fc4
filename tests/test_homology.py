import json
import random
from math import isqrt

import pytest
from hypothesis import given, settings
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
    columns,
    from_columns,
    identity_matrix,
    kernel_basis,
    lift_identity,
    mat_mul,
    mat_sub,
    multiplier_limit,
    preimage_lattice,
    snf_diagonal,
    subquotient,
)
from dihedral_dynamics.errors import NonStabilizationError, VerificationError
from dihedral_dynamics.exact_circle import ClopenSet, GOLDEN, Theta
from dihedral_dynamics.homology import (
    InvolutionModule,
    _image_refined_limit,
    bar_homologies,
    bar_homology,
    coinvariants,
    even_homology,
    free_action_table,
    free_product_fragment,
    free_product_homology,
    h0_translation_telescope,
    homology_table,
    nonfree_action_table,
    odd_homology,
    split_orbit_table,
    transfer_kernel,
    transfer_report,
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

from test_abgroups import equals_hom, lattice_subset, relation_rule, solve_integer

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
    plus = mat_add(module.mat(), ident)
    minus = mat_sub(module.mat(), ident)
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
    full = system.full()
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
    minus, plus = mat_sub(module.mat(), ident), mat_add(module.mat(), ident)
    return (subquotient(minus, plus), subquotient(plus, minus),
            Presentation.of(module.ncells, columns(minus)).canonical())


class TestInvolutionFormulas:
    @given(involutive_permutations(10))
    @settings(max_examples=200, deadline=None)
    def test_orbit_counts_match_smith_route(self, perm):
        m = InvolutionModule.from_permutation(perm)
        assert (odd_homology(m), even_homology(m), coinvariants(m)) == smith_route(m)

    @given(signed_involutions(6))
    @settings(max_examples=100, deadline=None)
    def test_signed_modules_take_smith_route(self, m):
        assert m.perm is None
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
            assert InvolutionModule.of(module.mat()) == module
        assert InvolutionModule.of([[-1]]).perm is None
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
        from dihedral_dynamics.homology import _bar_boundary

        m = InvolutionModule.from_permutation([1, 0, 2])
        for k in range(1, 5):
            d_k = _bar_boundary(m, k)
            d_next = _bar_boundary(m, k + 1)
            prod = mat_mul(d_k, d_next)
            assert all(all(x == 0 for x in row) for row in prod)

    @given(st.one_of(involutive_permutations(5).map(InvolutionModule.from_permutation),
                     signed_involutions(5)), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_all_degrees_at_once(self, m, top):
        assert bar_homologies(m, top) == [bar_homology(m, k) for k in range(top + 1)]

    def test_all_degrees_eliminate_each_boundary_once(self, monkeypatch):
        calls = []

        def counting(mat):
            calls.append((len(mat), len(mat[0])))
            return snf_diagonal(mat)

        monkeypatch.setattr(homology, "snf_diagonal", counting)
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


class TestTelescope:
    def test_denjoy(self, denjoy):
        tele = h0_translation_telescope(denjoy, 8)
        assert tele.h0 == FGAbGroup(2)
        assert tele.sigma_trivial
        assert tele.h0_plus == FGAbGroup(2)
        assert tele.limit.kind == "stabilized"

    @pytest.mark.parametrize("theta", [GOLDEN, Theta(p=-1, q=1, d=2, r=1),
                                       Theta(p=-1, q=1, d=3, r=2)],
                             ids=["golden", "sqrt2", "sqrt3"])
    def test_two_arcs_generate(self, theta):
        # [0, theta) and [theta, 0), with the top stage's relations, span
        # the module included from the stage below, hence the limit
        system = DenjoyFlipSystem(theta)
        tele = h0_translation_telescope(system, 8)
        top = tele.stages[-1]
        cells = system.level_windows(len(tele.stages))[0]
        gens = []
        for arc in (ClopenSet.arc(theta, 0, 1), ClopenSet.arc(theta, 1, 0)):
            ix = cover_indices(arc, cells)
            gens.append([int(i in ix) for i in range(len(cells))])
        span = from_columns(gens + list(top.relations), rows=top.ngens)
        assert lattice_subset(tele.connecting[-1].mat(), span)
        # one arc alone does not: the limit is Z^2
        alone = from_columns(gens[:1] + list(top.relations), rows=top.ngens)
        assert not lattice_subset(tele.connecting[-1].mat(), alone)

    def test_denjoy_other_theta(self, sqrt2_theta):
        from dihedral_dynamics.systems import DenjoyFlipSystem

        tele = h0_translation_telescope(DenjoyFlipSystem(sqrt2_theta), 8)
        assert tele.sigma_trivial
        assert tele.limit.kind == "stabilized"

    def test_odometer_localization(self, odometer3):
        tele = h0_translation_telescope(odometer3, 5)
        assert tele.limit.kind == "localization"
        assert tele.h0.display == "Z[1/3]"
        assert set(tele.h0.multipliers) == {3}
        assert tele.sigma_trivial
        assert tele.h0_plus.display == "Z[1/3]"

    def test_mixed_chain_multipliers(self):
        from dihedral_dynamics.systems import OdometerSystem

        odo = OdometerSystem([2, 6, 12, 60, 120])
        tele = h0_translation_telescope(odo, 5)
        assert tele.limit.kind == "localization"
        assert tele.h0.multipliers == (3, 2, 5, 2)
        assert tele.h0.display == "Z[1/30]"

    def test_doubled_base_without_flip(self, doubled):
        # the split case reads only h0 of the base circle, where the flip
        # check holds as well
        tele = h0_translation_telescope(doubled.base, 8)
        assert tele.sigma_trivial
        assert tele.h0 == FGAbGroup(2)
        assert tele.h0_plus == FGAbGroup(2)

    def test_doubling_route_matches_direct_image(self, denjoy):
        # h0_plus comes from doubling the canonical form (flip verified
        # trivial); the image of the summed connecting-plus-flip map must
        # agree at deep stages
        tele = h0_translation_telescope(denjoy, 8)
        for idx in (5, 6):
            cells = denjoy.level_windows(idx + 1)[0]
            incl = tele.connecting[idx].mat()
            plus = mat_add(incl, mat_mul(incl, pullback_matrix(denjoy, FLIP, cells, cells)))
            direct = AbHom.of(tele.stages[idx], tele.stages[idx + 1], plus).image_group()
            assert direct == tele.h0_plus

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
        tele = h0_translation_telescope(system, level)
        cells = [system.level_windows(t)[0] for t in range(1, len(tele.stages) + 1)]
        flip_rules, double_rules = [], []
        for i, conn in enumerate(tele.connecting):
            incl, stage = conn.mat(), tele.stages[i + 1]
            assert incl == cover_matrix(cells[i], cells[i + 1])
            flipped = mat_mul(incl, pullback_matrix(system, FLIP, cells[i], cells[i]))
            rule = relation_rule(stage, mat_sub(flipped, incl))
            assert rule == equals_hom(AbHom.of(tele.stages[i], stage, flipped), conn)
            flip_rules.append(rule)
            twice = [[2 * x for x in row] for row in incl]
            rule = relation_rule(stage, incl)
            assert rule == equals_hom(AbHom.of(tele.stages[i], stage, twice), conn)
            double_rules.append(rule)
        assert tele.sigma_trivial and all(flip_rules)
        assert not all(double_rules)

    @pytest.mark.parametrize("system,level", [
        (DenjoyFlipSystem(GOLDEN), 8),
        (OdometerSystem([3 ** i for i in range(1, 6)]), 5),
    ], ids=["golden", "3^i"])
    @pytest.mark.parametrize("bent", [0, -2])
    def test_flip_nontrivial_at_one_level(self, monkeypatch, system, level, bent):
        # a stand-in flip 2I on the cells of one level (the first, or the
        # one below the top) moves every class there: the telescope must
        # see it, whether its limit stabilizes or is a localization
        size = len(system.level_windows(range(1, level + 1)[bent])[0])
        pullback = homology.pullback_matrix

        def bent_flip(system, g, src, dst):
            if g == FLIP and len(src) == size:
                return [[2 * x for x in row] for row in identity_matrix(size)]
            return pullback(system, g, src, dst)

        monkeypatch.setattr(homology, "pullback_matrix", bent_flip)
        with pytest.raises(NonStabilizationError, match="flip acts nontrivially"):
            h0_translation_telescope(system, level)

    @pytest.mark.parametrize("run,calls", [
        (lambda s: h0_translation_telescope(s, 14), 13),
        (lambda s: homology_table(s, 14, "both"), 49),
    ], ids=["telescope", "table"])
    def test_abhom_count(self, monkeypatch, denjoy, run, calls):
        # the flip check builds no homs and the limit takes no images: a
        # golden L14 telescope makes its 13 inclusions, and the table adds
        # the free product's 12 H0 maps and 24 odd-homology maps
        of = AbHom.of.__func__
        made = []

        def counted(cls, *args):
            made.append(1)
            return of(cls, *args)

        monkeypatch.setattr(AbHom, "of", classmethod(counted))
        run(denjoy)
        assert len(made) == calls

    def test_three_levels_suffice(self, denjoy):
        tele = h0_translation_telescope(denjoy, 3)
        assert tele.h0 == FGAbGroup(2)
        assert tele.stabilized_level() == 1

    def test_undetermined_limit_reports_non_stabilization(self, monkeypatch, denjoy, tmp_path,
                                                          capsys):
        from dihedral_dynamics.cli import main

        # a connecting map that is multiplication by 0 leaves the limit open
        monkeypatch.setattr(homology, "_state_multiplier", lambda *args: 0)
        with pytest.raises(NonStabilizationError, match="undetermined"):
            h0_translation_telescope(denjoy, 8)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(denjoy.to_json()))
        assert main(["homology", "--system", str(path), "--max-level", "8"]) == 3
        assert "undetermined" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("theta", [GOLDEN, Theta(p=-1, q=1, d=2, r=1),
                                       Theta(p=-1, q=1, d=3, r=2)],
                             ids=["golden", "sqrt2", "sqrt3"])
    def test_circle_stages_are_the_limit(self, theta):
        # relations on the reflected window: every stage is Z^2 and every
        # connecting map an isomorphism
        tele = h0_translation_telescope(DenjoyFlipSystem(theta), 8)
        assert all(stage.canonical() == FGAbGroup(2) for stage in tele.stages)
        assert all(m.is_isomorphism() for m in tele.connecting)
        assert tele.stabilized_level() == 1

    def test_no_image_retry(self, monkeypatch, denjoy):
        def refuse(*args):
            raise AssertionError("the telescope took the system of images")

        monkeypatch.setattr(homology, "_image_refined_limit", refuse)
        monkeypatch.setattr(AbHom, "image_presentation", refuse)
        assert h0_translation_telescope(denjoy, 8).h0 == FGAbGroup(2)

    @pytest.mark.parametrize("system,level", [
        (DenjoyFlipSystem(GOLDEN), 8),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=2, r=1)), 8),
        (DenjoyFlipSystem(Theta(p=-1, q=1, d=3, r=2)), 8),
        (DoubledSystem(GOLDEN).base, 12),
        (OdometerSystem([3 ** i for i in range(1, 6)]), 5),
        (OdometerSystem([2, 6, 12, 60, 120]), 5),
    ], ids=["golden", "sqrt2", "sqrt3", "doubled-base", "3^i", "mixed"])
    def test_matches_lagged_route(self, system, level):
        tele = h0_translation_telescope(system, level)
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
        diagonal = abgroups.snf_diagonal
        made = []

        def counted(mat):
            made.append(1)
            return diagonal(mat)

        monkeypatch.setattr(abgroups, "snf_diagonal", counted)
        h0_translation_telescope(system, level)
        assert len(made) == calls

    @settings(max_examples=25, deadline=None)
    @given(quadratic_thetas(), st.integers(4, 10))
    def test_length_state_identities(self, theta, top):
        # the identities the telescope rests on, with the state read off
        # the exact cell measures: at every level it kills the relations,
        # maps onto Z^2 and is kept by the flip, and refinement keeps it.
        # The lagged route's image retry needs three maps, so four levels.
        system = DenjoyFlipSystem(theta)
        tele = h0_translation_telescope(system, top)
        cells = [system.level_windows(t)[0] for t in range(1, top + 1)]
        states = [measured_state(c) for c in cells]
        for stage, state, c in zip(tele.stages, states, cells):
            assert not any(map(any, mat_mul(state, stage.relation_matrix())))
            assert snf_diagonal(state) == [1, 1]
            assert mat_mul(state, pullback_matrix(system, FLIP, c, c)) == state
        for conn, coarse, fine in zip(tele.connecting, states, states[1:]):
            assert mat_mul(fine, conn.mat()) == coarse
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
            h0_translation_telescope(denjoy, 8)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(denjoy.to_json()))
        assert main(["homology", "--system", str(path), "--max-level", "8"]) == 4
        assert "not onto" in json.loads(capsys.readouterr().err)["error"]

    def test_shallowest_working_depth(self, denjoy):
        tele = h0_translation_telescope(denjoy, 4)
        assert tele.h0 == FGAbGroup(2)

    def test_cell_cap_needs_three_levels(self):
        from dihedral_dynamics.systems import OdometerSystem

        with pytest.raises(ValueError):
            h0_translation_telescope(OdometerSystem([600, 1200, 2400]), 3)


def lagged_telescope_limit(system, top):
    """Reference limit of the translation H_0 by the lagged route: stage N
    on the flip window of level N modulo f - f o (1,0) for f on the flip
    window one level down (on its own level for an odometer, which the
    translation permutes), limited with the image retry, since on circles
    every connecting map kills a Z."""
    lag = 0 if isinstance(system, OdometerSystem) else 1
    windows = [system.level_windows(t)[0] for t in range(1 - lag, top + 1)]
    cells = windows[lag:]
    stages = tuple(
        Presentation.of(len(c), columns(mat_sub(
            cover_matrix(s, c), pullback_matrix(system, TRANSLATION, s, c))))
        for s, c in zip(windows, cells))
    covers = [cover_matrix(a, b) for a, b in zip(windows, windows[1:])]
    homs = tuple(AbHom.of(a, b, m, w)
                 for a, b, m, w in zip(stages, stages[1:], covers[lag:], covers))
    return _image_refined_limit(DirectSystem(stages, homs))


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


class TestFreeProduct:
    def test_denjoy_fragment_level_eight(self, denjoy):
        fine_cells, coarse_cells = denjoy.level_windows(8)
        msig = InvolutionModule.of(pullback_matrix(denjoy, FLIP, fine_cells, fine_cells))
        mphisig = InvolutionModule.of(
            pullback_matrix(denjoy, GroupElement(1, 1), coarse_cells, coarse_cells))
        assert odd_homology(msig) == Z2
        assert odd_homology(mphisig) == FGAbGroup(0, (2, 2))
        frag = free_product_fragment(msig, mphisig, cover_matrix(coarse_cells, fine_cells))
        assert frag.h1 == FGAbGroup(0, (2, 2, 2))
        assert frag.paired_injective
        assert frag.middle_exact

    def test_one_cell_system(self):
        trivial = InvolutionModule.of([[1]])
        frag = free_product_fragment(trivial, trivial, [[1]])
        assert frag.h1 == FGAbGroup(0, (2, 2))
        assert frag.h0 == FGAbGroup(1)

    def test_denjoy_result(self, denjoy):
        fp = free_product_homology(denjoy, 8)
        assert fp.h0 == FGAbGroup(2)
        assert fp.h1 == FGAbGroup(0, (2, 2, 2))
        assert fp.all_injective
        assert fp.all_exact

    def test_odometer_result(self, odometer2):
        fp = free_product_homology(odometer2, 6)
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
    fine, coarse = system.level_windows(level)
    return (InvolutionModule.from_permutation(pullback_permutation(system, FLIP, fine)),
            InvolutionModule.from_permutation(
                pullback_permutation(system, GroupElement(1, 1), coarse)))


def fragment_at(system, level):
    """The free-product fragment of one level, its two modules and its
    two windows."""
    fine, coarse = system.level_windows(level)
    modules = level_modules(system, level)
    return free_product_fragment(*modules, cover_matrix(coarse, fine)), modules, fine, coarse


class TestLifts:
    """The homology sites prove their refinement maps by lift identities;
    every lift they pass must hold, must agree with solving, and a wrong
    lift or wrong relations must be refused."""

    @REAL_SYSTEMS
    def test_every_lift_holds_and_agrees(self, monkeypatch, system, level):
        of = AbHom.of.__func__
        image_of = AbHom.image_presentation
        lifted, unlifted, images = [], [], []

        def recording(cls, *args):
            (lifted if len(args) == 4 else unlifted).append(args)
            return of(cls, *args)

        def recorded_image(self):
            images.append(image_of(self))
            return images[-1]

        monkeypatch.setattr(AbHom, "of", classmethod(recording))
        monkeypatch.setattr(AbHom, "image_presentation", recorded_image)
        tele = h0_translation_telescope(system, level)
        assert len(lifted) == len(tele.stages) - 1
        try:
            fp = free_product_homology(system, level)
            # per level step: one H0 map and one odd map per reflection
            assert len(lifted) == len(tele.stages) - 1 + 3 * (len(fp.fragments) - 1)
        except NonStabilizationError:
            assert len(lifted) > len(tele.stages) - 1
        monkeypatch.undo()
        for src, dst, mat, lift in lifted:
            assert lift_identity(mat, src.relations, dst.relations, lift)
            assert AbHom.of(src, dst, mat).matrix == AbHom.of(src, dst, mat, lift).matrix
        # the only maps still proved by solving are those between images
        # (``_image_refined_limit``)
        assert all(any(src is im for im in images) for src, *_ in unlifted)

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
        projected = homology._on_orbits(upper[0], columns(cover_matrix(coarse2, fine2)))
        no_minus_i = Presentation.of(h0_next.ngens, [projected[t2[c]] for c in upper[1].orbits[1]])
        with pytest.raises(ValueError, match="relations into relations"):
            AbHom.of(h0, no_minus_i, h0_map, lift)
        # odd homology on fixed cells: relations 2 * I, so each map is its
        # own lift, and against doubled relations 4 * I it is refused
        # (a reflection without fixed cells has nothing to double)
        for k, induced in enumerate(odd_maps):
            a, b = frag.odd_stages[k], nxt.odd_stages[k]
            AbHom.of(a, b, induced, induced)
            doubled = Presentation.of(b.ngens, [[2 * x for x in col] for col in b.relations])
            if not b.ngens:
                assert doubled == b and not a.ngens
                continue
            with pytest.raises(ValueError, match="relations into relations"):
                AbHom.of(a, doubled, induced, induced)

    @pytest.mark.parametrize("system,run", [
        (DenjoyFlipSystem(GOLDEN), lambda s: h0_translation_telescope(s, 14)),
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
        # the count sees a solver where one is built
        subquotient([[0]], [[0]])
        assert built == [1]


def lattice_fragment_flags(msigma, mphisigma, inclusion):
    """``paired_injective`` and ``middle_exact`` from kernel lattices: the
    kernel of the paired map, and the kernel of the summed map compared
    with the image of the paired map in both directions."""
    n_fine, n_coarse = msigma.ncells, mphisigma.ncells
    a_minus = [mat_sub(m.mat(), identity_matrix(m.ncells)) for m in (msigma, mphisigma)]
    middle = Presentation.of(
        n_fine + n_coarse,
        [col + [0] * n_coarse for col in columns(a_minus[0])]
        + [[0] * n_fine + col for col in columns(a_minus[1])])
    paired = [list(row) for row in inclusion] + [
        [-x for x in row] for row in identity_matrix(n_coarse)]
    paired_injective = AbHom.of(
        Presentation.free(n_coarse), middle, paired).kernel_group().is_trivial()
    h0_relations = from_columns(
        columns(a_minus[0]) + columns(mat_mul(inclusion, a_minus[1])), rows=n_fine)
    summed = [e + list(row) for e, row in zip(identity_matrix(n_fine), inclusion)]
    kernel_lat = preimage_lattice(summed, h0_relations)
    image_lat = from_columns(columns(paired) + list(middle.relations), rows=n_fine + n_coarse)
    middle_exact = lattice_subset(kernel_lat, image_lat) and lattice_subset(image_lat, kernel_lat)
    return paired_injective, middle_exact


def random_fragment_input(rng):
    """Permutation modules on 1..6 fine and 1..4 coarse cells, joined by a
    zero, a random-integer or a partition inclusion (each coarse cell a
    disjoint union of fine cells)."""
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
    return msigma, mphisigma, inclusion


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
        def refuse(*args):
            raise AssertionError("preimage_lattice called")

        monkeypatch.setattr(abgroups, "preimage_lattice", refuse)
        p = Presentation.of(2, [(0, 4)])
        maps = (AbHom.of(p, p, [[1, 0], [0, 3]]), AbHom.of(p, p, [[1, 0], [2, 1]]))
        assert DirectSystem((p, p, p), maps).limit().level == 1
        fine, coarse = denjoy.level_windows(6)
        frag = free_product_fragment(
            InvolutionModule.of(pullback_matrix(denjoy, FLIP, fine, fine)),
            InvolutionModule.of(pullback_matrix(denjoy, GroupElement(1, 1), coarse, coarse)),
            cover_matrix(coarse, fine))
        assert frag.paired_injective and frag.middle_exact

    def test_middle_exact_checks_relations_column_for_column(self, monkeypatch, denjoy):
        # negating one H0 relation (on flip orbits) keeps the group, so the
        # canonical forms still agree, but the summed map no longer sends
        # the paired columns onto the H0 relations column for column
        orbit_h0 = homology._orbit_coinvariants

        def negated_first(*args):
            pres = orbit_h0(*args)
            k = next(k for k, col in enumerate(pres.relations) if any(col))
            rels = list(pres.relations)
            rels[k] = [-x for x in rels[k]]
            return Presentation.of(pres.ngens, rels)

        fine, coarse = denjoy.level_windows(6)
        modules = (InvolutionModule.of(pullback_matrix(denjoy, FLIP, fine, fine)),
                   InvolutionModule.of(pullback_matrix(denjoy, GroupElement(1, 1), coarse, coarse)),
                   cover_matrix(coarse, fine))
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
            return Presentation.of(pres.ngens + 1, [list(col) + [0] for col in pres.relations])

        monkeypatch.setattr(homology, "_orbit_coinvariants", extra_generator)
        fine, coarse = denjoy.level_windows(6)
        frag = free_product_fragment(*level_modules(denjoy, 6), cover_matrix(coarse, fine))
        assert frag.paired_injective
        assert not frag.middle_exact


def total_coinvariants(msigma, mphisigma, inclusion):
    """Reference H_0 on all fine cells: the fine module modulo f - f o sigma
    and the included g - g o phisigma."""
    minus = [mat_sub(m.mat(), identity_matrix(m.ncells)) for m in (msigma, mphisigma)]
    return Presentation.of(msigma.ncells,
                           columns(minus[0]) + columns(mat_mul(inclusion, minus[1])))


def kernel_quotient(kernel_of, image_of):
    """ker(kernel_of) / im(image_of) presented on a kernel basis: the
    presentation, the basis as matrix columns, and a solver for
    coordinates in that basis."""
    kb = kernel_basis(kernel_of)
    basis = from_columns(kb, rows=len(kernel_of[0]))
    solver = SnfSolver(basis)
    coords = [solver.solve(col) for col in columns(image_of)]
    assert None not in coords
    return Presentation.of(len(kb), coords), basis, solver


def full_cell_limits(system, levels):
    """Reference limits of the free-product assembly on all cells, with
    Smith forms: H0 on the total coinvariants of the fine cells, lifted
    by the block diagonal of the two window inclusions, and per
    reflection the limit of ker(A - I) / im(A + I) on kernel bases,
    lifted by its inclusion."""
    windows = [system.level_windows(t) for t in levels]
    flips = [(pullback_matrix(system, FLIP, fine, fine),
              pullback_matrix(system, GroupElement(1, 1), coarse, coarse))
             for fine, coarse in windows]
    h0_stages = tuple(
        total_coinvariants(InvolutionModule.of(a), InvolutionModule.of(b), cover_matrix(c, f))
        for (a, b), (f, c) in zip(flips, windows))
    incls = [(cover_matrix(f1, f2), cover_matrix(c1, c2))
             for (f1, c1), (f2, c2) in zip(windows, windows[1:])]
    h0_limit = DirectSystem(h0_stages, tuple(
        AbHom.of(a, b, m, block_diag(m, r))
        for a, b, (m, r) in zip(h0_stages, h0_stages[1:], incls))).limit()
    odd_stages, odd_limits = [], []
    for k in (0, 1):
        quotients = [kernel_quotient(mat_sub(f[k], identity_matrix(len(f[k]))),
                                     mat_add(f[k], identity_matrix(len(f[k]))))
                     for f in flips]
        homs = []
        for (a, basis, _), (b, _, solver), incl in zip(quotients, quotients[1:], incls):
            induced = [solver.solve(col) for col in columns(mat_mul(incl[k], basis))]
            homs.append(AbHom.of(a, b, from_columns(induced, rows=b.ngens), incl[k]))
        odd_stages.append(tuple(q[0] for q in quotients))
        odd_limits.append(_image_refined_limit(DirectSystem(odd_stages[-1], tuple(homs))))
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
    windows = [system.level_windows(t) for t in range(2, max_level + 1)]
    stages, bases = [], []
    for fine, coarse in windows:
        a = block_diag(pullback_matrix(system, FLIP, fine, fine),
                       pullback_matrix(system, GroupElement(1, 1), coarse, coarse))
        n = len(a)
        stage, basis, solver = kernel_quotient(mat_sub(a, identity_matrix(n)),
                                               mat_add(a, identity_matrix(n)))
        stages.append(stage)
        bases.append((basis, solver))
    homs = []
    for i, ((f1, c1), (f2, c2)) in enumerate(zip(windows, windows[1:])):
        incl = block_diag(cover_matrix(f1, f2), cover_matrix(c1, c2))
        solver = bases[i + 1][1]
        cols = [solver.solve(col) for col in columns(mat_mul(incl, bases[i][0]))]
        assert None not in cols
        homs.append(AbHom.of(stages[i], stages[i + 1],
                             from_columns(cols, rows=stages[i + 1].ngens)))
    limit = _image_refined_limit(DirectSystem(tuple(stages), tuple(homs)))
    return limit.group if limit.kind == "stabilized" else None


def split_h1(system, max_level):
    """free_product_homology's H_1, or None where it is still moving."""
    try:
        return free_product_homology(system, max_level).h1
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
        odd = [subquotient(mat_sub(m.mat(), identity_matrix(m.ncells)),
                           mat_add(m.mat(), identity_matrix(m.ncells)))
               for m in (msigma, mphisigma)]
        assert [stage.canonical() for stage in frag.odd_stages] == odd
        assert frag.h1 == odd[0].direct_sum(odd[1])
        assert (frag.paired_injective, frag.middle_exact) == lattice_fragment_flags(
            msigma, mphisigma, inclusion)

    @REAL_SYSTEMS
    def test_limits_match_full_cell_route(self, system, level):
        # every level here is within the 512-cell cap, so the assembly
        # runs to the requested level (3^i: 243 cells at level 5)
        top = homology._deepest_level(system, level)
        assert top == level
        levels = list(range(2, top + 1))
        h0_stages, h0_limit, odd_stages, odd_limits = full_cell_limits(system, levels)
        for i, level in enumerate(levels):
            frag = fragment_at(system, level)[0]
            assert frag.h0 == h0_stages[i].canonical(), level
            assert [s.canonical() for s in frag.odd_stages] == [
                odd_stages[0][i].canonical(), odd_stages[1][i].canonical()], level
        try:
            fp = free_product_homology(system, level)
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
        assert fp.h1 == odd_limits[0].group.direct_sum(odd_limits[1].group)

    def test_builds_no_dense_modules(self, monkeypatch, denjoy):
        # no dense pullback or involution matrix, and no kernel basis (the
        # Smith route of the odd homologies) on the free-product path
        def refuse(*args):
            raise AssertionError("dense route used")

        monkeypatch.setattr(homology, "pullback_matrix", refuse)
        monkeypatch.setattr(InvolutionModule, "of", classmethod(refuse))
        monkeypatch.setattr(InvolutionModule, "matrix", property(refuse))
        monkeypatch.setattr(abgroups, "kernel_basis", refuse)
        fp = free_product_homology(denjoy, 8)
        assert (fp.h0, fp.h1) == (FGAbGroup(2), FGAbGroup(0, (2, 2, 2)))

    def test_fragment_refuses_signed_modules(self):
        sign, trivial = InvolutionModule.of([[-1]]), InvolutionModule.from_permutation([0])
        for pair in ((sign, trivial), (trivial, sign)):
            with pytest.raises(ValueError, match="permutation modules"):
                free_product_fragment(*pair, [[1]])


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


SHAPES = [Presentation.free(1), Presentation.of(1, [(4,)]), Presentation.free(2),
          Presentation.of(2, [(0, 2)])]


@st.composite
def direct_systems(draw):
    """Direct systems of 3 to 6 stages whose maps are isomorphisms,
    non-isomorphisms, or Z -> Z multipliers."""
    length = draw(st.integers(3, 6))
    if draw(st.booleans()):
        stages = (Presentation.free(1),) * length
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
            maps.append(AbHom.of(src, dst, mat))
        except ValueError:
            maps.append(AbHom.of(src, dst, [[0] * src.ngens for _ in range(dst.ngens)]))
    return DirectSystem(stages, tuple(maps))


def _z_system(multipliers):
    z = Presentation.free(1)
    return DirectSystem((z,) * (len(multipliers) + 1),
                        tuple(AbHom.of(z, z, [[m]]) for m in multipliers))


class TestTopDownLimit:
    @given(direct_systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_eager_scan(self, ds):
        assert ds.limit() == eager_limit(ds)

    def test_kinds_covered(self):
        assert _z_system([2, 1, 1]).limit().kind == "stabilized"
        assert _z_system([1, 3, 2]).limit().kind == "localization"
        assert _z_system([1, 0, 2]).limit().kind == "undetermined"

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


class TestTransfer:
    def test_denjoy_kernel_trivial(self, denjoy):
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

        k = DoubledClopen(doubled.base.full(), doubled.base.empty())
        assert verify_complementary_witness(doubled, k, FLIP)

    def test_synthetic_free_case(self):
        # the order-2 class (1,-1) in Z^2 modulo (2,-2)
        middle = Presentation.of(2, [(2, -2)])
        witness = AbHom.of(Presentation.free(1), middle, [[1], [-1]])
        assert witness.image_group() == Z2
        assert middle.contains_relations([[2, -2]])
        assert not middle.contains_relations([[1, -1]])
        tr = AbHom.of(middle, Presentation.free(1), [[1, 1]])
        report = transfer_kernel(middle, tr, FGAbGroup(1))
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

    def test_case_free(self):
        table = free_action_table(FGAbGroup(2))
        assert table.entry(0) == FGAbGroup(2, (2,))
        assert table.entry(1) == ZERO
        assert table.entry(9) == ZERO

    def test_case_free_rejects_localization(self):
        from dihedral_dynamics.abgroups import LocalizationDescriptor

        with pytest.raises(ValueError):
            free_action_table(LocalizationDescriptor((2,)))

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
        fp = free_product_homology(denjoy, 6)
        for level, frag in fp.fragments:
            assert frag.paired_injective, level
            assert frag.middle_exact, level
