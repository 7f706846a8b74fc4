import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dihedral_dynamics.amenability import DEFAULT_TEST_SET, folner, folner_ratio
from dihedral_dynamics import amenability, systems, towers
from dihedral_dynamics.errors import VerificationError
from dihedral_dynamics.exact_circle import GOLDEN, Arc, ClopenSet, CutPoint, QuadExt, Theta, frac
from dihedral_dynamics.systems import (
    FLIP,
    DenjoyFlipSystem,
    DoubledClopen,
    DoubledSystem,
    GroupElement,
    IDENTITY,
    LevelSet,
    OdometerSystem,
)
from dihedral_dynamics.towers import (
    Castle,
    CastleReport,
    Tower,
    almost_finite_certificate,
    first_return_castle,
    verify_castle,
)

from test_cli import alarm
from test_contract import reference_partition_flags


#: The circle systems of the certificate tests: golden, sqrt2, sqrt3 and
#: sqrt7 - 2, each plain and doubled.
CERTIFIED_THETAS = {
    "golden": GOLDEN,
    "sqrt2": Theta(p=-1, q=1, d=2, r=1),
    "sqrt3": Theta(p=-1, q=1, d=3, r=2),
    "sqrt7": Theta(p=-2, q=1, d=7, r=1),
}
CERTIFIED_SYSTEMS = {
    **{name: DenjoyFlipSystem(theta) for name, theta in CERTIFIED_THETAS.items()},
    **{f"{name}-doubled": DoubledSystem(theta) for name, theta in CERTIFIED_THETAS.items()},
}


def scan_invariance_target(test_set, eps, ratio=folner_ratio):
    """Oracle for ``amenability._invariance_target``: the full upward scan.

    n is one past the last failing window seen so far, and the scan
    stops once it has covered F_4n, so n is the least n whose windows
    F_n, ..., F_4n all have ratio below eps; above 10^4 it gives up.
    """
    n, j = 1, 0
    while j < 4 * n:
        j += 1
        if ratio(folner(j), test_set) >= eps:
            n = j + 1
            if n > 10_000:
                raise ValueError("no invariant window size found below 10^4")
    return n


def orbit_return_time(theta, x, target, cap=1000):
    """Pointwise first-return oracle: iterate x -> x + theta exactly."""
    y = x
    for k in range(1, cap + 1):
        y = frac(y + QuadExt(Fraction(0), Fraction(1), theta))
        if target.contains_value(y):
            return k
    raise AssertionError("no return within cap")


class TestFirstReturnCastle:
    def test_golden_window(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        assert castle.return_times() == (3, 5)
        y1, y2 = castle.towers[0].base, castle.towers[1].base
        assert y1 == ClopenSet.arc(golden, -4, 1)    # [(3-4theta)+, theta+)
        assert y2 == ClopenSet.arc(golden, -1, -4)   # [(1-theta)+, (3-4theta)+)
        assert castle.verify().all_ok()

    def test_flip_of_full_climb_fixes_bases(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        for t in castle.towers:
            assert denjoy.act(GroupElement(-t.return_time, 1), t.base) == t.base
        # the height-3 base climbs to [(1-theta)+, (4theta-2)+), which the
        # flip carries back onto the base
        y1 = castle.towers[0].base
        climbed = denjoy.act(GroupElement(3, 0), y1)
        assert climbed == ClopenSet.arc(golden, -1, 4)
        assert denjoy.act(FLIP, climbed) == y1

    def test_orbit_simulation_oracle(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        rng = random.Random(12345)
        for _ in range(2000):
            x = QuadExt(Fraction(rng.randint(1, 10 ** 6 - 1), 10 ** 6), Fraction(0), golden)
            if not y.contains_value(x):
                continue
            lam = orbit_return_time(golden, x, y)
            owners = [t for t in castle.towers if t.base.contains_value(x)]
            assert len(owners) == 1
            assert owners[0].return_time == lam

    def test_full_circle_base(self, denjoy):
        castle = first_return_castle(denjoy, ClopenSet.full_circle(GOLDEN))
        assert castle.return_times() == (1,)
        assert castle.towers[0].base.full
        assert castle.verify().all_ok()

    def test_random_flip_invariant_windows(self, denjoy, golden):
        one = QuadExt(Fraction(1), Fraction(0), golden)
        for n in (2, 3, 5, 7):
            # [frac(-n theta), frac(n theta)) is flip-invariant when proper
            left, right = CutPoint.of(golden, -n), CutPoint.of(golden, n)
            y = ClopenSet.arc(golden, -n, n)
            if denjoy.act(FLIP, y) != y:
                continue
            castle = first_return_castle(denjoy, y)
            assert castle.verify().all_ok()
            total = None
            for t in castle.towers:
                part = t.base.measure() * t.return_time
                total = part if total is None else total + part
            assert total == one


class TestCeilInverseMeasure:
    @settings(max_examples=150, deadline=None)
    @given(theta=st.sampled_from([*CERTIFIED_THETAS.values(),
                                  Theta(p=500_000, q=1, d=2, r=10 ** 6),
                                  Theta(p=0, q=1, d=2, r=10 ** 6)]),
           a=st.fractions(max_denominator=10 ** 4), b=st.fractions(max_denominator=10 ** 4))
    def test_least_multiple_reaching_one(self, theta, a, b):
        mu = QuadExt(a, b, theta)
        assume(mu.sign())
        mu = mu if mu.sign() > 0 else -mu
        c = towers.ceil_inverse_measure(mu)
        assert (mu * c).shift(-1).sign() >= 0
        assert (mu * (c - 1)).shift(-1).sign() < 0

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 10 ** 9])
    def test_rational_measure(self, golden, k):
        assert towers.ceil_inverse_measure(QuadExt(Fraction(1, k), Fraction(0), golden)) == k


class TestReturnTimeContinuity:
    def test_constant_on_fine_cells(self, denjoy, golden):
        # at a window fine enough to carve the tower bases, every cell
        # meeting the base set lies inside a single tower base
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        cells = denjoy.cells(-4, 4)
        for cell in cells:
            if cell.intersection(y).is_empty():
                continue
            owners = [t for t in castle.towers
                      if not cell.intersection(t.base).is_empty()]
            assert len(owners) == 1
            assert cell.intersection(owners[0].base) == cell


class TestShapeEquivalence:
    def test_window_translates_equal_climbs(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        for t in castle.towers:
            window = {denjoy.act(g, t.base) for g in t.shape}
            climbs = {denjoy.act(GroupElement(k, 0), t.base) for k in range(t.return_time)}
            assert window == climbs

    def test_shapes_are_window_sets(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        for t in castle.towers:
            assert t.shape == tuple(folner(t.return_time).elements)


class TestVerifyCastle:
    def test_duplicated_tower_not_disjoint(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        doubled_up = Castle(system=denjoy, towers=castle.towers + (castle.towers[0],))
        report = verify_castle(doubled_up)
        assert not report.disjoint

    def test_missing_tower_no_cover(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        partial = Castle(system=denjoy, towers=castle.towers[:1])
        report = verify_castle(partial)
        assert not report.covers
        assert report.disjoint

    def test_flip_incompatible_base(self, denjoy, golden):
        bad = Castle(system=denjoy, towers=(
            Tower(base=ClopenSet.arc(golden, 0, 1), shape=tuple(folner(1).elements),
                  return_time=1),))
        report = verify_castle(bad)
        assert not report.sigma_compatible


def pointwise_partition_flags(pieces):
    """(disjoint, covers) of circle sets by exact membership alone: count
    the sets that contain each arc end of the family and one point
    inside each gap between consecutive ends (1/2 when there are none).

    ``reference_partition_flags`` builds its unions and intersections by
    the same sweep as the code under test; this reference shares none of
    it.
    """
    ends = {c.n: c.value for s in pieces for a in s.arcs for c in (a.left, a.right)}
    cuts = sorted(ends.values())
    gaps = [((x + y) * Fraction(1, 2)).frac() for x, y in zip(cuts, cuts[1:] + cuts[:1])]
    points = cuts + gaps or [QuadExt.rational(Fraction(1, 2), GOLDEN)]
    counts = [sum(s.contains_value(x) for s in pieces) for x in points]
    return max(counts) <= 1, min(counts) >= 1


def _arc(pair):
    return Arc(CutPoint.of(GOLDEN, pair[0]), CutPoint.of(GOLDEN, pair[1]))


CUT = st.integers(-9, 9)
# any clopen set: empty, full, or a normalized union of arcs, some of
# which wrap past 0 and some of which overlap
CIRCLE_SET = st.one_of(
    st.just(ClopenSet.empty(GOLDEN)),
    st.just(ClopenSet.full_circle(GOLDEN)),
    st.lists(st.tuples(CUT, CUT).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3)
    .map(lambda pairs: ClopenSet.from_arcs(GOLDEN, [_arc(p) for p in pairs])),
)


@st.composite
def window_groups(draw):
    """The cells of a cut window gathered into sets, near-partitions included."""
    lo = draw(st.integers(-8, 0))
    hi = draw(st.integers(lo + 1, lo + 10))
    cells = DenjoyFlipSystem(GOLDEN).cells(lo, hi)
    owner = [draw(st.integers(0, 3)) for _ in cells]
    sets = [ClopenSet.from_arcs(GOLDEN, [c.arcs[0] for c, o in zip(cells, owner) if o == k])
            for k in range(4)]
    edit = draw(st.sampled_from(["none", "drop", "repeat"]))
    if edit == "drop":
        sets.pop(draw(st.integers(0, 3)))
    elif edit == "repeat":
        sets.append(draw(st.sampled_from(cells)))
    return sets


class TestPartitionSweep:
    @settings(max_examples=300, deadline=None)
    @given(sets=st.lists(CIRCLE_SET, max_size=5))
    def test_circle_families(self, sets):
        system = DenjoyFlipSystem(GOLDEN)
        flags = system.partition_flags(sets)
        assert flags == reference_partition_flags(ClopenSet.full_circle(GOLDEN), sets)
        assert flags == pointwise_partition_flags(sets)

    @settings(max_examples=150, deadline=None)
    @given(sets=window_groups())
    def test_circle_near_partitions(self, sets):
        system = DenjoyFlipSystem(GOLDEN)
        flags = system.partition_flags(sets)
        assert flags == reference_partition_flags(ClopenSet.full_circle(GOLDEN), sets)
        assert flags == pointwise_partition_flags(sets)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(CIRCLE_SET, CIRCLE_SET), max_size=4),
           grouped=window_groups())
    def test_doubled_pairs(self, pairs, grouped):
        system = DoubledSystem(GOLDEN)
        # random pairs, and a window grouping on copy 0 beside one of its
        # images under the flip on copy 1
        flipped = [DenjoyFlipSystem(GOLDEN).act(FLIP, s) for s in grouped]
        for pieces in ([DoubledClopen(a, b) for a, b in pairs],
                       [DoubledClopen(a, b) for a, b in zip(grouped, flipped)]):
            flags = system.partition_flags(pieces)
            full = ClopenSet.full_circle(GOLDEN)
            assert flags == reference_partition_flags(DoubledClopen(full, full), pieces)
            # the doubled space is two disjoint circles, checked one by one
            (d0, c0), (d1, c1) = (pointwise_partition_flags([p.comp0 for p in pieces]),
                                  pointwise_partition_flags([p.comp1 for p in pieces]))
            assert flags == (d0 and d1, c0 and c1)

    def test_odometer_levels_must_match(self):
        # pieces at different levels are matched at the lcm of their
        # moduli, as the union route matches them at the chain's last level
        odo = OdometerSystem([2, 4, 8])
        assert odo.partition_flags(
            [LevelSet(2, frozenset({0})), LevelSet(4, frozenset({1}))]) == (True, False)
        assert odo.partition_flags(
            [LevelSet(2, frozenset({0})), LevelSet(4, frozenset({0, 1, 3}))]) == (False, True)
        # a castle whose tower bases sit at different levels is re-verified
        castle = Castle.from_json({
            "system": odo.to_json(),
            "towers": [{"base": {"modulus": 2, "residues": [0]}, "J": 1, "shape": [[0, 0]]},
                       {"base": {"modulus": 4, "residues": [1, 3]}, "J": 1, "shape": [[0, 0]]}]})
        assert castle.verify() == CastleReport(disjoint=True, covers=True,
                                               sigma_compatible=False)


class TestVerifyOnce:
    def test_castle_is_verified_once(self, denjoy, golden, monkeypatch):
        calls = []

        def counting(castle):
            calls.append(castle)
            return verify_castle(castle)

        monkeypatch.setattr(towers, "verify_castle", counting)
        castle = first_return_castle(denjoy, ClopenSet.arc(golden, -1, 1))
        castle.to_json()
        assert castle.verify().all_ok()
        assert calls == [castle]


class TestCertificates:
    def test_moderate_eps(self, denjoy):
        castle, _ = almost_finite_certificate(denjoy, DEFAULT_TEST_SET, Fraction(1, 2))
        assert all(r < Fraction(1, 2) for r in castle.shape_ratios(DEFAULT_TEST_SET))
        for t in castle.towers:
            assert folner_ratio_bound_ok(t, DEFAULT_TEST_SET)

    def test_huge_eps_returns_plain_castle(self, denjoy):
        castle, _ = almost_finite_certificate(denjoy, DEFAULT_TEST_SET, Fraction(3))
        assert castle.verify().all_ok()

    def test_identity_test_set(self, denjoy, golden):
        castle, _ = almost_finite_certificate(denjoy, [IDENTITY], Fraction(1, 7))
        assert castle.shape_ratios([IDENTITY]) == [Fraction(0)] * len(castle.towers)
        default = first_return_castle(denjoy, denjoy.invariant_window(1))
        assert castle.return_times() == default.return_times()

    def test_doubled_certificate(self, doubled):
        castle, _ = almost_finite_certificate(doubled, DEFAULT_TEST_SET, Fraction(1, 3))
        assert castle.verify().all_ok()
        assert all(r < Fraction(1, 3) for r in castle.shape_ratios(DEFAULT_TEST_SET))

    @settings(max_examples=200, deadline=None)
    @given(bad=st.frozensets(st.integers(1, 120), max_size=6))
    def test_target_scan_matches_window_definition(self, bad):
        # a stand-in ratio that fails exactly on the windows in ``bad``
        def ratio(f, k):
            return Fraction(1) if len(f) in bad else Fraction(0)

        got = scan_invariance_target(DEFAULT_TEST_SET, Fraction(1, 2), ratio)
        # the least n whose windows F_n, ..., F_4n all pass
        want = next(n for n in range(1, 200) if not bad & set(range(n, 4 * n + 1)))
        assert got == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(test_set=st.lists(st.builds(GroupElement, st.integers(-12, 12), st.integers(0, 1)),
                             min_size=1, max_size=6),
           eps=st.builds(Fraction, st.integers(1, 60), st.integers(1, 500)))
    @example(test_set=[GroupElement(12, 0)], eps=Fraction(1, 500))
    @example(test_set=[GroupElement(-12, 1), GroupElement(12, 1)], eps=Fraction(7, 500))
    def test_closed_form_target_matches_scan(self, test_set, eps):
        # the oracle's cost grows with n, so eps stays above 1/500; a
        # shift of 12 at eps 1/500 reaches the 10^4 cap on both routes
        def outcome(target):
            try:
                return target(test_set, eps)
            except ValueError as exc:
                return str(exc)

        assert outcome(amenability._invariance_target) == outcome(scan_invariance_target)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(test_set=st.lists(st.builds(GroupElement, st.integers(-12, 12), st.integers(0, 1)),
                             min_size=1, max_size=6))
    def test_numerator_has_period_two_past_j0(self, test_set):
        # N(j) = |K F_j (sym diff) F_j| depends only on the parity of j
        # once j >= j0 = 4s + 4
        s = max(abs(k.n) for k in test_set)

        def numerator(j):
            return folner_ratio(folner(j), test_set) * j

        assert all(numerator(j) == numerator(j + 2) for j in range(4 * s + 4, 8 * s + 31))

    @pytest.mark.parametrize("q", [1, 3, 10, 25, 1000, 3000, 10 ** 6])
    def test_default_target_makes_few_ratio_calls(self, monkeypatch, q):
        calls = []

        def counted(f, k):
            calls.append(len(f))
            return folner_ratio(f, k)

        monkeypatch.setattr(amenability, "folner_ratio", counted)
        eps = Fraction(1, q)
        try:
            got = amenability._invariance_target(DEFAULT_TEST_SET, eps)
        except ValueError:
            got = None
        assert len(calls) <= 11
        # the default K has N(j) = 2 for every j >= 2
        want = 2 * q + 1
        assert got == (want if want <= 10_000 else None)

    def test_target_scan_cap(self):
        # an exhausted budget is a bad request, not a failed check
        with pytest.raises(ValueError, match="10\\^4"):
            amenability._invariance_target(DEFAULT_TEST_SET, Fraction(1, 10 ** 6))

    def test_shrink_budget_exhausted(self, denjoy, monkeypatch):
        # window 2^0 = 1, the only one tried, is too coarse for eps 1/10:
        # a bad request, exit 2
        monkeypatch.setattr(systems, "_SHRINK_BUDGET", 1)
        with pytest.raises(ValueError, match="window 2\\^0$"):
            almost_finite_certificate(denjoy, DEFAULT_TEST_SET, Fraction(1, 10))

    @pytest.mark.parametrize("name", sorted(CERTIFIED_SYSTEMS))
    def test_search_tries_the_invariant_windows(self, monkeypatch, name):
        # with every window called not disjoint and a target of 1, which
        # every window passes the measure test for, the search tries
        # exactly invariant_window(2^k) for each k in its budget; on six of
        # these systems the least cut of some window 2w has an index of at
        # most w, so the new cuts alone would give a wider window
        system = CERTIFIED_SYSTEMS[name]
        swept = []
        monkeypatch.setattr(systems, "_SHRINK_BUDGET", 12)
        monkeypatch.setattr(systems, "_translates_disjoint",
                            lambda system, y, n: swept.append(y) and False)
        with pytest.raises(ValueError, match="window 2\\^11$"):
            systems._shrink_until_disjoint(system, 1)
        assert swept == [system.invariant_window(2 ** k) for k in range(12)]

    @pytest.mark.parametrize("kind,n_target", [
        ("denjoy", 55), ("denjoy", 233), ("doubled", 40), ("doubled", 150)])
    def test_sweep_only_windows_that_pass_the_measure_test(self, request, monkeypatch,
                                                           kind, n_target):
        system = request.getfixturevalue(kind)
        sweep = systems._translates_disjoint
        swept = []

        def recorded(system, y, n):
            swept.append(y)
            return sweep(system, y, n)

        monkeypatch.setattr(systems, "_translates_disjoint", recorded)
        got = systems._shrink_until_disjoint(system, n_target)
        # every swept window has n * mu <= 1, the last is the one returned
        assert swept[-1] == got
        for y in swept:
            assert (y.measure() * n_target).shift(-1).sign() <= 0
        # the first window whose translates are disjoint, swept or not
        windows = (system.invariant_window(2 ** k) for k in range(systems._SHRINK_BUDGET))
        tried = 0
        for y in windows:
            tried += 1
            if sweep(system, y, n_target):
                break
        assert got == y
        assert len(swept) < tried

    def test_eps_validation(self, denjoy):
        with pytest.raises(ValueError):
            almost_finite_certificate(denjoy, DEFAULT_TEST_SET, Fraction(0))


class TestLoopStartedAtTarget:
    @pytest.mark.parametrize("name", sorted(CERTIFIED_SYSTEMS))
    @pytest.mark.parametrize("q", [10, 25, 30])
    def test_certificate_equals_loop_from_step_one(self, name, q):
        # golden 1/30, sqrt3 1/25 and sqrt7 1/10 include windows that
        # pass the measure test and fail the sweep
        system, eps = CERTIFIED_SYSTEMS[name], Fraction(1, q)
        y, n_target = system.certificate_base(DEFAULT_TEST_SET, eps)
        castle, _ = almost_finite_certificate(system, DEFAULT_TEST_SET, eps)
        assert castle == first_return_castle(system, y)
        assert min(castle.return_times()) >= n_target

    def test_proven_disjoint_matches_step_one(self, denjoy):
        y = denjoy.invariant_window(8)
        full = first_return_castle(denjoy, y)
        for n in range(1, min(full.return_times()) + 1):
            assert first_return_castle(denjoy, y, proven_disjoint=n) == full

    def test_false_disjointness_claim_fails_verification(self, denjoy, golden):
        # the window's return times are 3 and 5, so 4 translates meet
        y = ClopenSet.arc(golden, -1, 1)
        with pytest.raises(VerificationError):
            first_return_castle(denjoy, y, proven_disjoint=4)
        with pytest.raises(ValueError):
            first_return_castle(denjoy, y, proven_disjoint=0)

    @pytest.mark.parametrize("name,q", [("golden", 30), ("sqrt3", 25), ("sqrt3-doubled", 25),
                                        ("sqrt7", 10), ("sqrt7-doubled", 10)])
    def test_lying_sweep_raises(self, monkeypatch, name, q):
        # in these cases a window passes the measure test and fails the
        # sweep; a sweep that calls it disjoint hands the loop a window
        # that returns before the target, and verification refuses it
        sweep = systems._translates_disjoint
        swept = []

        def lying(system, y, n):
            swept.append(sweep(system, y, n))
            return True

        monkeypatch.setattr(systems, "_translates_disjoint", lying)
        with pytest.raises(VerificationError):
            almost_finite_certificate(CERTIFIED_SYSTEMS[name], DEFAULT_TEST_SET, Fraction(1, q))
        assert swept == [False]

    def test_small_base_refused_before_the_loop(self, monkeypatch):
        # theta = 1/2 + sqrt(2)/10^6: window 1 passes at once, but its
        # ceil(1/measure) = 353,554 is above max(10^4, 16 * 21), and
        # first_return_castle refuses it before its loop acts by any
        # translation; only its flip check acts
        system = DenjoyFlipSystem(Theta(p=500_000, q=1, d=2, r=10 ** 6))
        castle_of = towers.first_return_castle
        inside, acted = [], []

        def act(g, s):
            if inside:
                acted.append(g)
            return DenjoyFlipSystem.act(system, g, s)

        def spied(*args, **kwargs):
            inside.append(True)
            try:
                return castle_of(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(system, "act", act)
        monkeypatch.setattr(towers, "first_return_castle", spied)
        with pytest.raises(ValueError, match="ceiling of max\\(10\\^4, 16 \\* 21\\) = 10000"):
            almost_finite_certificate(system, DEFAULT_TEST_SET, Fraction(1, 10))
        assert acted == [FLIP]

    def test_window_cuts_looked_up_once(self, monkeypatch):
        # theta = sqrt(2)/10^6: every window up to 2^15 fails the measure
        # test, and window 2w looks up only its cuts w < |n| <= 2w, so the
        # search makes about 2 * 2^15 lookups (131,102 when each window
        # looked up all of its own cuts)
        system = DenjoyFlipSystem(Theta(p=0, q=1, d=2, r=10 ** 6))
        of = CutPoint.of.__func__
        calls = []

        def counted(cls, theta, n):
            calls.append(n)
            return of(cls, theta, n)

        monkeypatch.setattr(CutPoint, "of", classmethod(counted))
        with alarm(10), pytest.raises(ValueError, match="window 2\\^15$"):
            almost_finite_certificate(system, DEFAULT_TEST_SET, Fraction(1, 10))
        assert len(calls) <= 2 * 2 ** 15 + 64

    def test_library_castle_is_bounded(self):
        # the same base handed to first_return_castle directly: refused
        # under the ceiling of max(10^4, 16 * 1) before the loop, which
        # would take about 353,554 steps
        system = DenjoyFlipSystem(Theta(p=500_000, q=1, d=2, r=10 ** 6))
        with alarm(5), pytest.raises(ValueError, match="max\\(10\\^4, 16 \\* 1\\) = 10000"):
            first_return_castle(system, system.invariant_window(1))


def folner_ratio_bound_ok(tower, test_set):
    return folner_ratio(tower.shape, test_set) <= Fraction(2, tower.return_time)


class TestOdometerCosetCeiling:
    def test_castle_level_above_the_ceiling(self, monkeypatch):
        # the window of the last level, above the ceiling and with no
        # level after it, is rejected before any level set is built (just
        # above the ceiling, so that a missing check costs a quarter of a
        # million residues, no more)
        def refuse(*args):
            raise AssertionError("level set built")

        monkeypatch.setattr(systems, "LevelSet", refuse)
        with pytest.raises(ValueError, match="ceiling of 1000000 cosets"):
            OdometerSystem([2, 4, 10 ** 6 + 4]).invariant_window(3)

    @pytest.mark.parametrize("chain,level", [([2, 4, 10 ** 6 + 4], 2), ([30, 3 * 10 ** 7], 1)])
    def test_cylinder_at_its_own_level_below_a_level_above_the_ceiling(self, chain, level):
        # the next level is above the ceiling, so the cylinder is seen at
        # its own level, where it proves the same: one tower of height n_level
        odo = OdometerSystem(chain)
        n = odo.modulus(level)
        assert odo.invariant_window(level) == LevelSet(n, frozenset({0}))
        with alarm(5):
            castle = first_return_castle(odo, odo.invariant_window(level))
        assert castle.return_times() == (n,)
        assert castle.verify().all_ok()

    def test_base_above_the_ceiling_refused_before_the_loop(self):
        # ceil(1/measure) = 4000 passes the loop's own ceiling, so without
        # a check before the loop it takes about 4000 steps over 5000
        # residues before the partition check refuses the level
        modulus = 2 * 10 ** 7
        base = LevelSet(modulus, frozenset(range(0, modulus, 4000)))
        with alarm(5), pytest.raises(ValueError, match="ceiling of 1000000 cosets"):
            first_return_castle(OdometerSystem([2, modulus]), base)

    def test_partition_check_above_the_ceiling(self):
        system = OdometerSystem([2, 4])
        assert system.partition_flags([LevelSet(10 ** 6, frozenset({0}))]) == (True, False)
        with pytest.raises(ValueError, match="ceiling of 1000000 cosets"):
            system.partition_flags([LevelSet(10 ** 6 + 1, frozenset({0}))])


class TestCastleJson:
    def test_round_trip_and_reverify(self, denjoy, golden):
        y = ClopenSet.arc(golden, -1, 1)
        castle = first_return_castle(denjoy, y)
        data = json.loads(json.dumps(castle.to_json()))
        assert data["verified"] == {"disjoint": True, "covers": True,
                                    "sigmaCompatible": True}
        restored = Castle.from_json(data)
        assert restored.verify().all_ok()
        assert restored.return_times() == castle.return_times()
        assert [t.base for t in restored.towers] == [t.base for t in castle.towers]

    def test_no_towers_rejected(self, denjoy, golden):
        data = first_return_castle(denjoy, ClopenSet.arc(golden, -1, 1)).to_json()
        data["towers"] = []
        with pytest.raises(ValueError):
            Castle.from_json(data)

    def test_odometer_round_trip(self):
        odo = OdometerSystem([2, 4, 8])
        castle = first_return_castle(odo, LevelSet(8, frozenset({0, 2, 4, 6})))
        restored = Castle.from_json(json.loads(json.dumps(castle.to_json())))
        assert restored.verify().all_ok()

    @pytest.mark.parametrize("modulus,residues", [(0, []), (3, [0, 1, 2]), (-1, [])],
                             ids=["zero", "three", "negative"])
    def test_odometer_base_must_divide_the_chain(self, modulus, residues):
        # a base modulus that does not divide the chain's last level names
        # no clopen set of the odometer and is refused, naming the field:
        # the empty base at modulus 0 "covered" the space and the one at
        # modulus 3 verified on the chain [2, 4, 8]
        data = {"system": {"type": "odometer", "chain": [2, 4, 8]},
                "towers": [{"base": {"modulus": modulus, "residues": residues},
                            "J": 1, "shape": [[0, 0]]}]}
        with pytest.raises(ValueError, match="level set field 'modulus'"):
            Castle.from_json(data).verify()

    @pytest.mark.parametrize("kind", ["circle", "doubled", "odometer"])
    @pytest.mark.parametrize("edit", ["none", "repeat-tower", "drop-shape-element"])
    def test_reverified_report_matches(self, kind, edit):
        castle = _sample_castle(kind)
        first = castle.towers[0]
        if edit == "repeat-tower":
            castle = Castle(castle.system, castle.towers + (first,))
        elif edit == "drop-shape-element":
            short = Tower(first.base, first.shape[:-1], first.return_time)
            castle = Castle(castle.system, (short,) + castle.towers[1:])
        restored = Castle.from_json(json.loads(json.dumps(castle.to_json())))
        assert restored.verify() == castle.verify()
        assert restored.verify().all_ok() == (edit == "none")


def _sample_castle(kind):
    if kind == "circle":
        return first_return_castle(DenjoyFlipSystem(GOLDEN), ClopenSet.arc(GOLDEN, -1, 1))
    if kind == "doubled":
        z = ClopenSet.arc(GOLDEN, 0, 1)
        return first_return_castle(DoubledSystem(GOLDEN), DoubledClopen(z, z))
    return first_return_castle(OdometerSystem([2, 4, 8]), LevelSet(8, frozenset({0, 2, 4, 6})))
