import ast
import itertools
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dihedral_dynamics
from dihedral_dynamics import systems
from dihedral_dynamics.errors import NonStabilizationError
from dihedral_dynamics.exact_circle import Arc, ClopenSet, QuadExt, Theta, frac, qe_cmp
from dihedral_dynamics.systems import (
    FLIP,
    IDENTITY,
    TRANSLATION,
    DenjoyFlipSystem,
    DoubledClopen,
    DoubledSystem,
    GroupElement,
    LevelSet,
    OdometerSystem,
    cover_indices,
    cover_matrix,
    pullback_matrix,
    pullback_permutation,
    system_from_json,
)

from dense import columns, dense, sparse
from test_contract import level_sets, reference_cover_matrix, reference_pullback_matrix


def coset_identification_ok(odo, level):
    """Check that (k, j) |-> k mod n_i identifies the coset space.

    Exhaustive over the representatives with |k| <= n_i: two elements
    name the same coset (their quotient lies in the level subgroup
    n_i Z x| Z_2) exactly when their translation parts agree modulo the
    level.
    """
    n = odo.modulus(level)
    elems = [GroupElement(k, j) for k in range(-n, n + 1) for j in (0, 1)]
    return all(((g1.inverse() * g2).n % n == 0) == ((g1.n - g2.n) % n == 0)
               for g1 in elems for g2 in elems)


class TestGroupElement:
    def test_product_and_inverse(self):
        rng = random.Random(3)
        for _ in range(200):
            g = GroupElement(rng.randint(-9, 9), rng.randint(0, 1))
            h = GroupElement(rng.randint(-9, 9), rng.randint(0, 1))
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()
            k = GroupElement(rng.randint(-9, 9), rng.randint(0, 1))
            assert (g * h) * k == g * (h * k)

    def test_defining_relations(self):
        assert (FLIP * FLIP).is_identity()
        assert FLIP * TRANSLATION * FLIP == GroupElement(-1, 0)

    def test_json(self):
        assert GroupElement.from_json([3, 1]) == GroupElement(3, 1)
        with pytest.raises(ValueError):
            GroupElement.from_json([1, 2, 3])


class TestDenjoyAction:
    def test_flip_invariant_arc(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)   # [(1-theta)+, theta+)
        assert denjoy.act(FLIP, y) == y

    def test_rotation_shifts(self, denjoy, golden):
        a = ClopenSet.arc(golden, 0, 1)
        assert denjoy.act(TRANSLATION, a) == ClopenSet.arc(golden, 1, 2)


def evaluate(g, x):
    """Point action (n, s): x -> (-1)^s x + n*theta, reduced mod 1."""
    moved = (-x if g.s else x) + QuadExt(Fraction(0), Fraction(g.n), x.theta)
    return frac(moved)


class TestDenjoyFixedPoints:
    def test_flip_fixes_half(self, denjoy, golden):
        pts = denjoy.fixed_points(FLIP).points
        assert [(p.a, p.b) for p in pts] == [(Fraction(1, 2), Fraction(0))]

    def test_reflected_translation(self, denjoy, golden):
        pts = denjoy.fixed_points(GroupElement(1, 1)).points
        assert {(p.a, p.b) for p in pts} == {
            (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))}

    def test_rotation_free(self, denjoy):
        for n in range(1, 51):
            assert denjoy.fixed_points(GroupElement(n, 0)).points == ()
            assert denjoy.fixed_points(GroupElement(-n, 0)).points == ()

    def test_fixed_points_verify(self, denjoy):
        for n in range(-8, 9):
            g = GroupElement(n, 1)
            for x in denjoy.fixed_points(g).points:
                assert qe_cmp(evaluate(g, x), x) == 0

    def test_identity_rejected(self, denjoy):
        with pytest.raises(ValueError):
            denjoy.fixed_points(IDENTITY)


class TestDoubled:
    def test_free(self, doubled):
        for n in range(-20, 21):
            for s in (0, 1):
                g = GroupElement(n, s)
                if g.is_identity():
                    continue
                assert doubled.fixed_points(g).points == ()

    def test_components_invariant_and_swapped(self, doubled, golden):
        a = ClopenSet.arc(golden, 0, 1)
        s = DoubledClopen(a, ClopenSet.empty(golden))
        moved = doubled.act(TRANSLATION, s)
        assert moved.comp1.is_empty() and not moved.comp0.is_empty()
        flipped = doubled.act(FLIP, s)
        assert flipped.comp0.is_empty() and flipped.comp1 == a


class TestOdometer:
    def test_fixed_fraction_examples(self):
        odo = OdometerSystem([12, 24, 48])
        assert odo.fixed_fraction(FLIP, 1) == Fraction(1, 6)
        assert odo.fixed_fraction(GroupElement(1, 1), 1) == Fraction(0)
        assert odo.fixed_fraction(GroupElement(12, 0), 1) == Fraction(1)

    def test_fixed_fraction_enumeration_oracle(self):
        rng = random.Random(31)
        odo = OdometerSystem([6, 12, 60, 120])
        for level in range(1, 5):
            n = odo.modulus(level)
            for _ in range(25):
                g = GroupElement(rng.randint(-30, 30), rng.randint(0, 1))
                sign = -1 if g.s else 1
                brute = sum(1 for x in range(n) if (g.n + sign * x) % n == x)
                assert odo.fixed_fraction(g, level) == Fraction(brute, n)

    def test_flip_fraction_bound(self, odometer3, odometer2):
        for odo in (odometer3, odometer2, OdometerSystem([12 * 2 ** i for i in range(7)])):
            for level in range(1, len(odo.chain) + 1):
                n = odo.modulus(level)
                for k in range(-5, 6):
                    assert odo.fixed_fraction(GroupElement(k, 1), level) <= Fraction(2, n)

    def test_stable_counts(self, odometer3, odometer2):
        tc = odometer3.stable_fixed_count(FLIP, 6)
        assert (tc.count, tc.stabilized_at) == (1, 1)
        tc = odometer3.stable_fixed_count(GroupElement(1, 1), 6)
        assert (tc.count, tc.stabilized_at) == (1, 1)
        tc = odometer2.stable_fixed_count(FLIP, 8)
        assert tc.count == 1
        twist = OdometerSystem([2 * 3 ** i for i in range(1, 7)])
        assert twist.stable_fixed_count(FLIP, 5).count == 2

    def test_stable_counts_brute_force(self):
        # depth-limited exhaustive thread enumeration as an oracle
        def brute(chain, g, depth, extra):
            odo = OdometerSystem(chain)
            fixed = [odo.level_fixed_set(g, level) for level in range(1, depth + extra + 1)]
            deep = []
            for xs in itertools.product(*fixed):
                if all(xs[i + 1] % chain[i] == xs[i] for i in range(len(xs) - 1)):
                    deep.append(xs)
            return len({xs[depth - 1] for xs in deep})

        cases = [
            ([2 ** i for i in range(1, 9)], FLIP, 4, 4),
            ([3 ** i for i in range(1, 7)], FLIP, 3, 3),
            ([3 ** i for i in range(1, 7)], GroupElement(1, 1), 3, 3),
            ([2 * 3 ** i for i in range(1, 7)], FLIP, 3, 3),
            ([12 * 2 ** i for i in range(7)], FLIP, 3, 3),
            # the flip fixes 0 and 1 mod 2, but only 0 is the reduction of
            # one it fixes mod 4 (0 or 2): one thread
            ([2, 4], FLIP, 1, 1),
            # translations: every cylinder of a level or none
            ([2, 4], GroupElement(4, 0), 1, 1),
            ([10, 100], GroupElement(-300, 0), 1, 1),
            ([2, 4, 8, 16], GroupElement(4, 0), 1, 3),
            ([3, 9, 27], GroupElement(9, 0), 1, 2),
        ]
        for chain, g, depth, extra in cases:
            odo = OdometerSystem(chain)
            tc = odo.stable_fixed_count(g, depth + extra)
            assert tc.count == brute(chain, g, depth, extra), (chain, g)

    @settings(max_examples=300, deadline=None)
    @given(factors=st.lists(st.sampled_from([2, 3, 4, 5]), min_size=2, max_size=6),
           n=st.integers(-40, 40), s=st.integers(0, 1), data=st.data())
    def test_thread_count_matches_explicit_threads(self, factors, n, s, data):
        chain = list(itertools.accumulate(factors, lambda a, b: a * b))
        horizon = data.draw(st.integers(2, len(chain)))
        g = GroupElement(n, s)
        assume(not g.is_identity())
        assert thread_count_outcome(OdometerSystem(chain), g, horizon) == \
            explicit_thread_outcome(chain, g, horizon)

    def test_translation_element_counts(self, odometer3):
        # (k, 0) fixes everything at levels dividing k, nothing after
        tc = odometer3.stable_fixed_count(GroupElement(9, 0), 6)
        assert tc.count == 0

    def test_identity_and_depth_validation(self, odometer3):
        with pytest.raises(ValueError):
            odometer3.stable_fixed_count(IDENTITY, 5)
        with pytest.raises(ValueError):
            odometer3.stable_fixed_count(FLIP, 1)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            OdometerSystem([4, 4, 4])
        with pytest.raises(ValueError):
            OdometerSystem([4, 6])
        with pytest.raises(ValueError):
            OdometerSystem([5])

    def test_coset_identification(self):
        for chain in ([2, 4, 8], [3, 9], [6, 12]):
            odo = OdometerSystem(chain)
            for level in range(1, len(chain) + 1):
                assert coset_identification_ok(odo, level)

    def test_projection_equivariance(self):
        rng = random.Random(41)
        odo = OdometerSystem([4, 12, 24])
        for level in (1, 2):
            n_fine = odo.modulus(level + 1)
            n_coarse = odo.modulus(level)
            for _ in range(50):
                g = GroupElement(rng.randint(-15, 15), rng.randint(0, 1))
                x = rng.randrange(n_fine)
                sign = -1 if g.s else 1
                moved_then_projected = ((g.n + sign * x) % n_fine) % n_coarse
                projected_then_moved = (g.n + sign * (x % n_coarse)) % n_coarse
                assert moved_then_projected == projected_then_moved

    def test_reflected_thread_values(self, odometer3):
        # the unique fixed residue of the reflected step at level i is (3^i+1)/2
        for level in range(1, 6):
            n = odometer3.modulus(level)
            assert odometer3.level_fixed_set(GroupElement(1, 1), level) == {(n + 1) // 2}

    def test_act_is_homomorphism(self, odometer3):
        rng = random.Random(37)
        n = odometer3.modulus(3)
        for _ in range(40):
            s = LevelSet(n, frozenset(rng.sample(range(n), rng.randint(0, n // 2))))
            g = GroupElement(rng.randint(-9, 9), rng.randint(0, 1))
            h = GroupElement(rng.randint(-9, 9), rng.randint(0, 1))
            assert odometer3.act(g * h, s) == odometer3.act(g, odometer3.act(h, s))


def thread_count_outcome(odo, g, horizon):
    """``(count, stabilized_at)`` of ``stable_fixed_count``, or the type,
    message and level of the ``NonStabilizationError`` it raises."""
    try:
        tc = odo.stable_fixed_count(g, horizon)
    except NonStabilizationError as exc:
        return type(exc), str(exc), exc.level
    return tc.count, tc.stabilized_at


def explicit_thread_outcome(chain, g, horizon):
    """The thread count by enumerating the threads (x_1, ..., x_N) up to
    the horizon N: x_k is fixed by g mod n_k and reduces to x_{k-1}.

    The count at level k is the number of distinct prefixes (x_1, ...,
    x_k).  The reported count is the one at level N - 1, and it settles
    at the first level from which the count is constant through N - 1;
    a count that settles only at N - 1, above level 1, is refused.
    """
    sign = -1 if g.s else 1
    threads = [()]
    for k in range(horizon):
        m = chain[k]
        fixed = [x for x in range(m) if (g.n + sign * x) % m == x]
        threads = [t + (x,) for t in threads for x in fixed
                   if not t or x % chain[k - 1] == t[-1]]
    counts = [len({t[:k] for t in threads}) for k in range(1, horizon)]
    final = counts[-1]
    settled = len(counts)
    while settled > 1 and counts[settled - 2] == final:
        settled -= 1
    if settled == len(counts) > 1:
        return (NonStabilizationError,
                f"thread count for {g} settled only at the horizon", horizon)
    return final, settled


def top_freeness_check(chain, max_level, search=4):
    """Search conjugation witnesses taking the flip out of the chain core.

    For a strict divisibility chain the intersection of the level
    subgroups is {identity, flip}; the check hunts, for every level j up
    to ``max_level``, an element b of the level subgroup with
    b^-1 (0,1) b outside that intersection, and reports the witnesses.
    """
    odo = OdometerSystem(chain)
    if max_level > len(odo.chain):
        raise ValueError("max_level exceeds the computed chain")
    core = {IDENTITY, FLIP}
    witnesses = {}
    ok = True
    for j in range(1, max_level + 1):
        n_j = odo.modulus(j)
        found = None
        for m in range(1, search + 1):
            for t in (0, 1):
                b = GroupElement(n_j * m, t)
                conj = b.inverse() * FLIP * b
                if conj not in core:
                    found = (b, conj)
                    break
            if found:
                break
        if found is None:
            ok = False
        else:
            witnesses[j] = found
    return {"topologically_free": ok, "witnesses": witnesses}


class TestTopologicalFreeness:
    def test_standard_chains(self):
        assert top_freeness_check([2 * 3 ** i for i in range(1, 6)], 4)["topologically_free"]
        factorials = [2]
        for i in range(2, 7):
            factorials.append(factorials[-1] * i)
        assert top_freeness_check(factorials, 4)["topologically_free"]

    def test_witnesses_escape_core(self):
        report = top_freeness_check([2 ** i for i in range(1, 6)], 3)
        for j, (b, conj) in report["witnesses"].items():
            assert b.n % (2 ** j) == 0
            assert conj not in (IDENTITY, FLIP)

    def test_constant_chain_rejected(self):
        with pytest.raises(ValueError):
            top_freeness_check([4, 4], 2)


class TestLevelPartition:
    """Level cells and the matrices the group induces on them."""

    @staticmethod
    def is_permutation(mat):
        return all(sum(line) == 1 for line in [*mat, *zip(*mat)])

    def test_denjoy_level_one(self, denjoy, golden):
        cells = denjoy.cells(-1, 1)
        assert len(cells) == 3
        sigma = dense(pullback_matrix(FLIP, cells, cells), 3)
        assert self.is_permutation(sigma)
        fixed = [i for i in range(3) if sigma[i][i]]
        assert len(fixed) == 1
        half = QuadExt(Fraction(1, 2), Fraction(0), golden)
        assert cells[fixed[0]].contains_value(half)

    def test_denjoy_level_zero(self, denjoy):
        cells = denjoy.cells(0, 0)
        assert len(cells) == 1 and cells[0].full
        assert pullback_matrix(FLIP, cells, cells) == [{0: 1}]

    def test_partition_matrices(self, denjoy):
        cells = denjoy.cells(-2, 2)
        assert self.is_permutation(dense(pullback_matrix(FLIP, cells, cells), 5))
        finer = denjoy.cells(-3, 3)
        phi = pullback_matrix(TRANSLATION, cells, finer)
        # one column per cell, each cell's preimage made of at least one finer cell
        assert len(phi) == len(cells) and all(col for col in phi)
        assert all(0 <= i < len(finer) for col in phi for i in col)
        shifted = denjoy.cells(-1, 2)
        assert self.is_permutation(
            dense(pullback_matrix(GroupElement(1, 1), shifted, shifted), 4))

        odo = OdometerSystem([4, 8])
        ocells = odo.cells(1)
        assert pullback_matrix(FLIP, ocells, ocells)[0] == {0: 1}
        assert self.is_permutation(dense(pullback_matrix(TRANSLATION, ocells, ocells), 4))

    def test_odometer_level(self):
        odo = OdometerSystem([4, 8])
        cells = odo.cells(1)
        assert len(cells) == 4
        sigma = dense(pullback_matrix(FLIP, cells, cells), 4)
        assert [i for i in range(4) if sigma[i][i]] == [0, 2]
        # translation cycles all cells
        phi = dense(pullback_matrix(TRANSLATION, cells, cells), 4)
        seen, i = set(), 0
        for _ in range(4):
            seen.add(i)
            i = next(r for r in range(4) if phi[r][i])
        assert seen == {0, 1, 2, 3}

    def test_refinement(self, denjoy):
        for level in range(0, 4):
            coarse = denjoy.cells(-level, level)
            fine = denjoy.cells(-level - 1, level + 1)
            for c in coarse:
                ix = cover_indices(c, fine)
                union = fine[ix[0]]
                for i in ix[1:]:
                    union = union.union(fine[i])
                assert union == c

    def test_odometer_refinement(self, odometer3):
        for level in (1, 2):
            for c in odometer3.cells(level):
                fine = odometer3.cells(level + 1)
                ix = cover_indices(c, fine)
                assert len(ix) == odometer3.modulus(level + 1) // odometer3.modulus(level)


def dense_cover_matrix(coarse, fine):
    """The refinement as the dense list of rows the library built before
    it built sparse columns, from the cells' index."""
    mat = [[0] * len(coarse) for _ in range(len(fine))]
    for j, c in enumerate(coarse):
        for i in cover_indices(c, fine):
            mat[i][j] = 1
    return mat


def dense_pullback_matrix(g, src_cells, dst_cells):
    """f -> f o g as the dense list of rows the library built before it
    built sparse columns, from the destination cells' index."""
    index = systems._indexed(dst_cells)
    g_inv = g.inverse()
    mat = [[0] * len(src_cells) for _ in range(len(dst_cells))]
    for j, c in enumerate(src_cells):
        for i in index.preimage(g_inv, c):
            mat[i][j] = 1
    return mat


def check_cover(coarse, fine):
    """The sparse refinement columns hold the dense builder's matrix, and
    that is the set-operation reference's."""
    rows = dense_cover_matrix(coarse, fine)
    assert rows == reference_cover_matrix(coarse, fine)
    assert cover_matrix(coarse, fine) == sparse(columns(rows, len(coarse)))


def check_pullback(system, g, src, dst):
    """As ``check_cover``, for the pullback of g."""
    rows = dense_pullback_matrix(g, src, dst)
    assert rows == reference_pullback_matrix(system, g, src, dst)
    assert pullback_matrix(g, src, dst) == sparse(columns(rows, len(src)))


THETAS = {
    "golden": Theta(p=-1, q=1, d=5, r=2),
    "sqrt2": Theta(p=-1, q=1, d=2, r=1),
    "sqrt3": Theta(p=-1, q=1, d=3, r=2),
}
ELEMENTS = [TRANSLATION, FLIP, GroupElement(1, 1)]


def preimage_window(g, lo, hi):
    """Cut indices of g^-1 applied to the cut window [lo, hi]."""
    g_inv = g.inverse()
    if g_inv.s:
        return g_inv.n - hi, g_inv.n - lo
    return lo + g_inv.n, hi + g_inv.n


def check_window(system, g, lo, hi, grow):
    """Lookup matrices against the reference on the window [lo, hi].

    The destination window holds the source window and its preimage,
    widened by ``grow`` cuts on each side.
    """
    plo, phi = preimage_window(g, lo, hi)
    src = system.cells(lo, hi)
    dst = system.cells(min(lo, plo) - grow, max(hi, phi) + grow)
    check_pullback(system, g, src, dst)
    check_cover(src, dst)


class TestLevelMatrixOracle:
    """Index lookups agree with intersecting every cell pair."""

    @pytest.mark.parametrize("name", sorted(THETAS))
    def test_circle_windows(self, name):
        # the homology levels' own matrices are in the contract suite
        # (tests/test_contract.py::TestLevelContract); these are the
        # windows around them
        system = DenjoyFlipSystem(THETAS[name])
        for level in range(1, 9):
            sym, shifted = system.level_chain(level)[-1]
            for g in ELEMENTS:
                for lo, hi in ((-level, level), (1 - level, level)):
                    check_window(system, g, lo, hi, grow=level % 2)
            check_pullback(system, TRANSLATION, sym, system.cells(-level - 1, level + 1))
            check_cover(shifted, system.cells(-level, level + 1))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(THETAS)), lo=st.integers(-12, 6),
           width=st.integers(0, 10), n=st.integers(-4, 4), s=st.integers(0, 1),
           grow=st.integers(0, 3))
    def test_random_windows(self, name, lo, width, n, s, grow):
        check_window(DenjoyFlipSystem(THETAS[name]), GroupElement(n, s), lo, lo + width, grow)

    def test_rejects_what_it_cannot_answer(self, denjoy, golden):
        cells = denjoy.cells(-2, 2)
        # a target endpoint outside the window
        with pytest.raises(ValueError):
            cover_indices(ClopenSet.arc(golden, 0, 3), cells)
        with pytest.raises(ValueError):
            pullback_matrix(TRANSLATION, cells, cells)
        # a cell list with a gap
        with pytest.raises(ValueError):
            cover_matrix(cells[:1], cells[:2] + cells[3:])
        # a chained list winding twice around the circle
        cuts = denjoy.cells(-2, 2).cuts
        order = [0, 2, 4, 1, 3]
        twice = [ClopenSet(golden, (Arc(cuts[a], cuts[b]),))
                 for a, b in zip(order, order[1:] + order[:1])]
        with pytest.raises(ValueError):
            cover_matrix([ClopenSet.full_circle(golden)], twice)
        # odometer targets at another level, and cells of the other family
        odo = OdometerSystem([3, 9])
        with pytest.raises(ValueError):
            cover_indices(odo.cells(2)[0], odo.cells(1))
        for src, dst in ((odo.cells(1), cells), (cells, odo.cells(1))):
            with pytest.raises(ValueError):
                pullback_matrix(FLIP, src, dst)


def lift(s, modulus):
    """Plain residue lifting: the classes r + t*m mod ``modulus`` of a
    level set s mod m, m dividing ``modulus``."""
    m = s.modulus
    return frozenset(r + t * m for r in s.residues for t in range(modulus // m))


class TestLevelSetOperations:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), top=st.sampled_from([8, 12, 36, 120]))
    def test_mixed_levels_match_lifted_residues(self, data, top):
        # operands at two levels meet at the lcm of their moduli; at one
        # level, the result keeps it
        a, b = data.draw(level_sets(top)), data.draw(level_sets(top))
        m = lcm(a.modulus, b.modulus)
        assert a.union(b) == LevelSet(m, lift(a, m) | lift(b, m))
        assert a.intersection(b) == LevelSet(m, lift(a, m) & lift(b, m))
        assert a.difference(b) == LevelSet(m, lift(a, m) - lift(b, m))
        assert a.union(b).measure() + a.intersection(b).measure() == a.measure() + b.measure()

    def test_lcm_above_the_coset_ceiling(self):
        # 3 * 10^6 cosets are refused before any residue is built
        with pytest.raises(ValueError, match="ceiling of 1000000 cosets"):
            LevelSet(10 ** 6, frozenset({0})).union(LevelSet(3, frozenset({0})))


class TestCrossLevelCover:
    """Coarser odometer cylinders covered by a finer level's, against
    their residues lifted to the finer level."""

    CHAINS = [[2 ** i for i in range(1, 7)], [3 ** i for i in range(1, 6)], [2, 6, 12, 60, 120]]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("chain", CHAINS, ids=str)
    def test_matches_refine(self, chain, k):
        odo = OdometerSystem(chain)
        for t in range(1, len(chain) - k + 1):
            coarse, fine = odo.cells(t), odo.cells(t + k)
            refined = [LevelSet(fine.modulus, lift(c, fine.modulus)) for c in coarse]
            want = [[int(f.residues <= r.residues) for r in refined] for f in fine]
            assert cover_matrix(coarse, fine) == sparse(columns(want, len(coarse)))
            assert want == reference_cover_matrix(refined, fine)

    def test_modulus_must_divide(self):
        odo = OdometerSystem([2, 6, 12])
        with pytest.raises(ValueError):
            cover_indices(LevelSet(4, frozenset({1})), odo.cells(2))
        with pytest.raises(ValueError):
            cover_matrix(OdometerSystem([2, 4]).cells(2), odo.cells(2))


class TestLevelWindows:
    def test_circle(self, denjoy):
        sym, shifted = denjoy.level_chain(3)[-1]
        assert sym == denjoy.cells(-3, 3) and shifted == denjoy.cells(-2, 3)
        # cell i runs from the window's i-th cut to the next, cyclically
        assert [c.arcs[0].right for c in sym] == [c.arcs[0].left for c in sym[1:] + sym[:1]]
        # the second window is the relation window: its translate is a
        # union of first-window cells
        assert pullback_matrix(TRANSLATION, shifted, sym)
        # the odometers' 512-coset ceiling does not bound circle levels
        assert len(denjoy.level_chain(40)) == 40

    @pytest.mark.parametrize("top", [1, 6, 14])
    def test_circle_windows_come_from_cells(self, monkeypatch, golden, sqrt2_theta, top):
        # cells is the one builder of circle windows: level_chain asks it
        # for the two windows of each level and builds none of its own
        built = []
        cells = DenjoyFlipSystem.cells

        def counted(system, lo, hi):
            built.append((lo, hi))
            return cells(system, lo, hi)

        monkeypatch.setattr(DenjoyFlipSystem, "cells", counted)
        for theta in (golden, sqrt2_theta):
            built.clear()
            DenjoyFlipSystem(theta).level_chain(top)
            assert len(built) == 2 * top
            assert sorted(built) == sorted(w for t in range(1, top + 1)
                                           for w in ((-t, t), (1 - t, t)))

    def test_circle_ceiling(self, denjoy):
        assert len(denjoy.level_chain(128)) == 128
        with pytest.raises(ValueError, match="128"):
            denjoy.level_chain(129)

    def test_odometer(self, odometer3):
        sym, shifted = odometer3.level_chain(3)[-1]
        assert sym is shifted and sym == odometer3.cells(3)
        # cell r is the cylinder of residue r
        assert [c.residues for c in sym] == [frozenset({r}) for r in range(27)]
        assert sorted(pullback_permutation(TRANSLATION, sym)) == list(range(27))
        # thread counts are read to the chain's end, whatever the request
        for g in (FLIP, GroupElement(1, 1)):
            assert odometer3.fixed_point_report(g, 16) == odometer3.fixed_point_report(g, 7)
        # the list stops at the last level of at most 512 cosets, 3^5 = 243
        assert len(odometer3.level_chain(16)) == len(odometer3.level_chain(5)) == 5
        assert len(odometer3.level_chain(4)) == 4
        assert len(OdometerSystem([512, 1024]).level_chain(2)) == 1
        assert OdometerSystem([600, 1200]).level_chain(2) == []


class TestSystemJson:
    def test_round_trips(self, denjoy, doubled, odometer3):
        for system in (denjoy, doubled, odometer3):
            data = json.loads(json.dumps(system.to_json()))
            assert system_from_json(data) == system

    def test_geometric_chain(self):
        odo = system_from_json({"type": "odometer", "base": 2, "growth": "geometric",
                                "levels": 4})
        assert odo.chain == (2, 4, 8, 16)
        deepest = system_from_json({"type": "odometer", "base": 2, "growth": "geometric",
                                    "levels": 128})
        assert deepest.chain[-1] == 2 ** 128
        with pytest.raises(ValueError, match="ceiling of 128"):
            system_from_json({"type": "odometer", "base": 2, "growth": "geometric",
                              "levels": 129})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            system_from_json({"type": "odometer", "chain": [2, 4], "extra": 1})
        with pytest.raises(ValueError):
            system_from_json({"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 5, "r": 2},
                              "junk": True})
        with pytest.raises(ValueError):
            system_from_json({"type": "mystery"})


class TestInvariantWindow:
    @pytest.mark.parametrize("kind", ["circle", "doubled"])
    def test_flip_invariant_and_shrinking(self, golden, kind):
        system = DenjoyFlipSystem(golden) if kind == "circle" else DoubledSystem(golden)
        measures = []
        for window in (1, 2, 4, 8, 16, 32):
            y = system.invariant_window(window)
            assert not y.is_empty()
            assert system.act(FLIP, y) == y
            measures.append(y.measure())
        assert all(qe_cmp(b, a) <= 0 for a, b in zip(measures, measures[1:]))
        assert qe_cmp(measures[-1], measures[0]) < 0

    def test_circle_window_surrounds_half(self, denjoy, golden):
        half = QuadExt(Fraction(1, 2), Fraction(0), golden)
        for window in (1, 3, 9, 27):
            assert denjoy.invariant_window(window).contains_value(half)


SYSTEM_CLASSES = {"DenjoyFlipSystem", "DoubledSystem", "OdometerSystem"}


@pytest.mark.parametrize("module", ["cli", "towers"])
def test_no_system_class_forks(module):
    """cli.py and towers.py ask systems through their methods: neither
    imports a system class nor names one (as in ``isinstance``), nor asks
    whether a system has a method (``hasattr``, ``getattr``)."""
    path = Path(dihedral_dynamics.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & SYSTEM_CLASSES
    assert not named & {"hasattr", "getattr"}
