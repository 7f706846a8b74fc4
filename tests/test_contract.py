"""The system contract, run once for every family.

The ``systems`` module docstring lists what castles, certificates and
the CLI ask of a system.  Each test here asks it of the cut circle, the
doubled circle and the odometer alike, with the family as a parameter,
so a new family passes or fails the same suite: the dihedral relations
and measure preservation under ``act``, ``set_from_json`` round trips,
``partition_flags`` against the union route, first-return castles
over flip-invariant bases, rebuilt from their JSON, and the certificate
base each family proposes.

Homology asks the circle and the odometer for their levels, and
``TestLevelContract`` checks the levels ``homology_levels`` builds for
both: each window is an indexed partition of the space, every level
matrix is the one set operations give, and each length state kills its
stage's relations, is fixed by the flip and scales through refinement.
"""

import json
from fractions import Fraction
from functools import cache, reduce
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_dynamics import systems
from dihedral_dynamics.amenability import DEFAULT_TEST_SET
from dihedral_dynamics.errors import VerificationError
from dihedral_dynamics.exact_circle import (GOLDEN, Arc, ClopenSet, CutPoint, QuadExt, Theta, qe_cmp,
                                           sweep_partition)
from dihedral_dynamics.homology import homology_levels
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
)
from dihedral_dynamics.towers import (Castle, CastleReport, almost_finite_certificate,
                                      ceil_inverse_measure, first_return_castle)

from dense import columns, sparse
from test_cli import mutated
from test_exact_circle import THETAS as CIRCLE_THETAS
from test_exact_circle import clopen_sets
from test_homology import quadratic_thetas

FAMILIES = ["circle", "doubled", "odometer"]

ODOMETER_CHAINS = [[2, 4, 8, 16], [3, 9, 27, 81], [6, 36, 216, 1296], [2, 6, 12, 60, 120]]

ELEMENT = st.builds(GroupElement, st.integers(-6, 6), st.integers(0, 1))


def level_sets(top):
    """Level sets at any level dividing ``top``, not only at a chain's own."""
    return st.sampled_from([m for m in range(1, top + 1) if top % m == 0]).flatmap(
        lambda m: st.builds(LevelSet, st.just(m), st.frozensets(st.integers(0, m - 1))))


@st.composite
def family_sets(draw, family):
    """A system of the family, a strategy for its clopen sets, and its
    whole space as such a set.

    Circle sets end at cuts of a window of golden, sqrt2 or sqrt3; each
    odometer set sits at its own level, any one that divides the chain's
    last one, not only at the chain's own levels."""
    if family == "odometer":
        chain = draw(st.sampled_from(ODOMETER_CHAINS))
        top = chain[-1]
        return OdometerSystem(chain), level_sets(top), LevelSet(top, frozenset(range(top)))
    theta = draw(st.sampled_from(CIRCLE_THETAS))
    circle, full = clopen_sets(theta), ClopenSet.full_circle(theta)
    if family == "circle":
        return DenjoyFlipSystem(theta), circle, full
    return DoubledSystem(theta), st.builds(DoubledClopen, circle, circle), DoubledClopen(full, full)


def phi(n):
    return GroupElement(n, 0)


def check_relations(system, s, g, h, a, b):
    """The dihedral relations and the action law, through ``act``."""
    act = system.act
    assert act(FLIP, act(FLIP, s)) == s
    assert act(FLIP, act(TRANSLATION, act(FLIP, s))) == act(phi(-1), s)
    assert act(phi(a), act(phi(b), s)) == act(phi(a + b), s)
    assert act(g, act(h, s)) == act(g * h, s)
    assert act(IDENTITY, s) == s


def reference_partition_flags(full, pieces):
    """(disjoint, covers) by growing a union one piece at a time; the
    union covers when nothing of the whole space ``full`` is left over."""
    disjoint = True
    union = None
    for s in pieces:
        if union is None:
            union = s
        else:
            if not union.intersection(s).is_empty():
                disjoint = False
            union = union.union(s)
    return disjoint, union is not None and full.difference(union).is_empty()


@pytest.mark.parametrize("family", FAMILIES)
class TestSystemContract:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), g=ELEMENT, h=ELEMENT, a=st.integers(-40, 40),
           b=st.integers(-40, 40))
    def test_act_keeps_relations_and_measure(self, family, data, g, h, a, b):
        system, sets, _ = data.draw(family_sets(family))
        s = data.draw(sets)
        check_relations(system, s, g, h, a, b)
        assert system.act(g, s).measure() == s.measure()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_set_json_round_trip(self, family, data):
        system, sets, _ = data.draw(family_sets(family))
        s = data.draw(sets)
        assert system.set_from_json(json.loads(json.dumps(s.to_json()))) == s

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), edit=st.sampled_from(["none", "drop", "repeat"]))
    def test_partition_flags_match_union_route(self, family, data, edit):
        # drawn families of sets, and a three-piece partition of the
        # space with one piece dropped or repeated; an odometer's pieces
        # may sit at different levels, whose set operations meet at the lcm
        system, sets, full = data.draw(family_sets(family))
        pieces = data.draw(st.lists(sets, max_size=5))
        assert system.partition_flags(pieces) == reference_partition_flags(full, pieces)
        a, b = data.draw(sets), data.draw(sets)
        split = [a, b.difference(a), full.difference(a.union(b))]
        if edit == "drop":
            split.pop(data.draw(st.integers(0, 2)))
        elif edit == "repeat":
            split.append(data.draw(st.sampled_from(split)))
        assert system.partition_flags(split) == reference_partition_flags(full, split)


SQRT2 = Theta(p=-1, q=1, d=2, r=1)


def _on_both_copies(s):
    return DoubledClopen(s, s)


_FULL, _EMPTY = ClopenSet.full_circle(GOLDEN), ClopenSet.empty(GOLDEN)
_ARC, _WRAP = ClopenSet.arc(GOLDEN, 0, 1), ClopenSet.arc(GOLDEN, 2, -3)

# (circle family, expected (disjoint, covers)): the degenerate families
# a sweep meets at its edges, where no gap or only full members exist
PARTITION_EDGES = {
    "none": ([], (True, False)),
    "empty": ([_EMPTY], (True, False)),
    "full": ([_FULL], (True, True)),
    "full-twice": ([_FULL, _FULL], (False, True)),
    "full-and-arc": ([_FULL, _ARC], (False, True)),
    "arc-twice": ([_ARC, _ARC], (False, False)),
    "wrapping-arc-and-complement": ([_WRAP, _WRAP.complement()], (True, True)),
}


class TestPartitionEdgeCases:
    @pytest.mark.parametrize("name", PARTITION_EDGES)
    def test_circle_and_doubled_match_union_route(self, name):
        sets, want = PARTITION_EDGES[name]
        assert reference_partition_flags(_FULL, sets) == want
        assert sweep_partition(sets) == want
        doubled = [_on_both_copies(s) for s in sets]
        assert DoubledSystem(GOLDEN).partition_flags(doubled) == want
        assert reference_partition_flags(_on_both_copies(_FULL), doubled) == want

    def test_doubled_copy_left_uncovered(self):
        # copy 0 is partitioned and copy 1 is left empty
        pieces = [DoubledClopen(_WRAP, _EMPTY), DoubledClopen(_WRAP.complement(), _EMPTY)]
        want = reference_partition_flags(_on_both_copies(_FULL), pieces)
        assert want == (True, False)
        assert DoubledSystem(GOLDEN).partition_flags(pieces) == want


# (family, system, flip-invariant base, whole space, tower heights)
CASTLES = {
    "circle-golden-arc": ("circle", DenjoyFlipSystem(GOLDEN), ClopenSet.arc(GOLDEN, -1, 1),
                          ClopenSet.full_circle(GOLDEN), (3, 5)),
    "circle-golden-window-8": ("circle", DenjoyFlipSystem(GOLDEN),
                               DenjoyFlipSystem(GOLDEN).invariant_window(8),
                               ClopenSet.full_circle(GOLDEN), (13, 21)),
    "circle-sqrt2-arc": ("circle", DenjoyFlipSystem(SQRT2), ClopenSet.arc(SQRT2, -1, 1),
                         ClopenSet.full_circle(SQRT2), (1, 2)),
    "doubled-golden-arc": ("doubled", DoubledSystem(GOLDEN),
                           _on_both_copies(ClopenSet.arc(GOLDEN, 0, 1)),
                           _on_both_copies(ClopenSet.full_circle(GOLDEN)), (1, 2)),
    "doubled-golden-window-4": ("doubled", DoubledSystem(GOLDEN),
                                DoubledSystem(GOLDEN).invariant_window(4),
                                _on_both_copies(ClopenSet.full_circle(GOLDEN)), (5, 8)),
    # 1 climbs to 7 in six steps and 7 to 1 in two
    "odometer-1-7-mod-8": ("odometer", OdometerSystem([2, 4, 8]), LevelSet(8, frozenset({1, 7})),
                           LevelSet(8, frozenset(range(8))), (2, 6)),
    "odometer-cylinder-mod-8": ("odometer", OdometerSystem([2, 4, 8]),
                                LevelSet(8, frozenset({0, 4})),
                                LevelSet(8, frozenset(range(8))), (4,)),
    "odometer-window-1": ("odometer", OdometerSystem([2, 4, 8]),
                          OdometerSystem([2, 4, 8]).invariant_window(1),
                          LevelSet(8, frozenset(range(8))), (2,)),
    "odometer-4-5-mod-9": ("odometer", OdometerSystem([3, 9]), LevelSet(9, frozenset({4, 5})),
                           LevelSet(9, frozenset(range(9))), (1, 8)),
}

# (system, empty set, a nonempty set the flip moves), per family
REFUSED_BASES = {
    "circle": (DenjoyFlipSystem(GOLDEN), ClopenSet.empty(GOLDEN), ClopenSet.arc(GOLDEN, 0, 1)),
    "doubled": (DoubledSystem(GOLDEN),
                DoubledClopen(ClopenSet.empty(GOLDEN), ClopenSet.empty(GOLDEN)),
                DoubledClopen(ClopenSet.arc(GOLDEN, 0, 1), ClopenSet.empty(GOLDEN))),
    "odometer": (OdometerSystem([2, 4, 8]), LevelSet(8, frozenset()),
                 LevelSet(8, frozenset({1}))),
}


@cache
def sample_json(case):
    _, system, base, _, _ = CASTLES[case]
    return first_return_castle(system, base).to_json()


class TestFirstReturnContract:
    @pytest.mark.parametrize("case", sorted(CASTLES))
    def test_castle_partitions_and_reverifies(self, case):
        _, system, base, whole, heights = CASTLES[case]
        castle = first_return_castle(system, base)
        assert castle.verify().all_ok()
        assert castle.return_times() == heights
        # the floors' measures sum to the whole space's (Kac's lemma)
        floors = reduce(add, (t.base.measure() * t.return_time for t in castle.towers))
        assert floors == whole.measure()
        restored = Castle.from_json(json.loads(json.dumps(castle.to_json())))
        assert restored == castle
        assert restored.verify().all_ok()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_refuses_empty_and_moved_bases(self, family):
        system, empty, moved = REFUSED_BASES[family]
        with pytest.raises(ValueError, match="nonempty"):
            first_return_castle(system, empty)
        with pytest.raises(ValueError, match="flip-invariant"):
            first_return_castle(system, moved)

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_castle_json_is_refused_or_verified(self, family, data):
        # a castle's JSON with fields deleted, retyped or taken from a
        # castle of another family: Castle.from_json refuses it with
        # ValueError, or reads a castle whose verification gives a report
        own = [name for name in sorted(CASTLES) if CASTLES[name][0] == family]
        castle_json = data.draw(mutated(sample_json(data.draw(st.sampled_from(own))),
                                        [sample_json(name) for name in sorted(CASTLES)]))
        try:
            report = Castle.from_json(castle_json).verify()
        except ValueError:
            return
        assert isinstance(report, CastleReport)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), theta=quadratic_thetas(), doubled=st.booleans(),
           n=st.integers(1, 40) | st.integers(-40, -1))
    def test_closed_form_equals_the_step_loop(self, data, theta, doubled, n):
        # one-arc flip-invariant bases: [-n theta, n theta) around 1/2 or
        # around 0 on the circle, [0, n theta) on both copies doubled; the
        # pieces found in closed form are the step loop's, from step 1 and
        # from any true count of disjoint translates, and so is the castle;
        # a base of length 1/2 or more goes through the loop
        if doubled:
            system, z = DoubledSystem(theta), ClopenSet.arc(theta, 0, n)
            y = DoubledClopen(z, z)
        else:
            system, y = DenjoyFlipSystem(theta), ClopenSet.arc(theta, -n, n)
        inverse_measure = ceil_inverse_measure(y.measure())
        assume(inverse_measure <= 2000)
        max_steps = 10 * inverse_measure + 10
        loop = systems._step_returns(system, y, 1, max_steps)
        start = data.draw(st.integers(1, min(loop)))
        assert systems._step_returns(system, y, start, max_steps) == loop
        assert system.first_returns(y, start, max_steps) == loop
        narrow = systems._narrow(system._arc_copies(y)) is not None
        assert narrow == (qe_cmp(y.measure(), QuadExt.rational(Fraction(1, 2), theta)) < 0)
        castle = first_return_castle(system, y, proven_disjoint=start)
        assert castle.return_times() == tuple(sorted(loop))
        assert castle.verify().all_ok()
        if narrow:
            assert set(castle.return_times()) <= {min(loop), max(loop) - min(loop), max(loop)}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), theta=quadratic_thetas(), doubled=st.booleans(),
           t=st.integers(2, 12))
    def test_multi_arc_bases_verify_through_the_loop(self, data, theta, doubled, t):
        # flip-invariant bases of two arcs, from the cells of the window
        # [-t, t]: a cell and its mirror on the circle, two cells that do
        # not touch on both copies doubled
        circle = DenjoyFlipSystem(theta)
        cells = circle.cells(-t, t)
        i = data.draw(st.integers(0, len(cells) - 1))
        if doubled:
            j = (i + data.draw(st.integers(2, len(cells) - 2))) % len(cells)
            system, z = DoubledSystem(theta), cells[i].union(cells[j])
            y = DoubledClopen(z, z)
        else:
            system, y = circle, cells[i].union(circle.act(FLIP, cells[i]))
            z = y
        assume(len(z.arcs) == 2)
        assert system._arc_copies(y) is None
        inverse_measure = ceil_inverse_measure(y.measure())
        assume(inverse_measure <= 2000)
        max_steps = 10 * inverse_measure + 10
        loop = systems._step_returns(system, y, 1, max_steps)
        assert system.first_returns(y, 1, max_steps) == loop
        castle = first_return_castle(system, y)
        assert castle.return_times() == tuple(sorted(loop))
        assert castle.verify().all_ok()

    @pytest.mark.parametrize("case,closed", [
        ("circle-golden-arc", True), ("circle-golden-window-8", True),
        ("circle-sqrt2-arc", False), ("doubled-golden-arc", False),
        ("doubled-golden-window-4", True), ("odometer-1-7-mod-8", False)])
    def test_step_loop_only_without_a_closed_form(self, monkeypatch, case, closed):
        # golden's windows are shorter than 1/2; sqrt2's [-theta, theta)
        # and the doubled [0, theta) are longer, and an odometer base has
        # no closed form
        _, system, base, _, heights = CASTLES[case]
        loop = systems._step_returns
        stepped = []

        def spied(*args):
            stepped.append(args[1])
            return loop(*args)

        monkeypatch.setattr(systems, "_step_returns", spied)
        assert first_return_castle(system, base).return_times() == heights
        assert stepped == ([] if closed else [base])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(theta=quadratic_thetas(), left=st.integers(-30, 30), length=st.integers(1, 30),
           turn=st.sampled_from([1, -1]), start=st.integers(1, 40))
    def test_scan_matches_brute_force(self, theta, left, length, turn, start):
        # k+ and k-, read off cut keys, against the least k in start..10^4
        # with frac(turn * k * theta) below the arc's length l, and above
        # 1 - l, by exact comparison of a + b*theta values
        arc = Arc(CutPoint.of(theta, left), CutPoint.of(theta, left + length))
        ell = arc.length()
        co_ell = (-ell).shift(1)
        plus = minus = None
        for k in range(start, 10 ** 4 + 1):
            x = QuadExt(Fraction(0), Fraction(turn * k), theta).frac()
            if plus is None and qe_cmp(x, ell) < 0:
                plus = k
            if minus is None and qe_cmp(x, co_ell) > 0:
                minus = k
            if plus is not None and minus is not None:
                break
        assert systems._arc_hits(arc, turn, start, 10 ** 4) == (plus, minus)

    def test_scan_stops_at_the_later_hit(self, monkeypatch):
        # golden's window 8 has k+ = 13 and k- = 21: the scan looks up the
        # two cuts of the arc's length and one cut per k up to 21, not up
        # to the 10^4 it is allowed
        (arc,) = DenjoyFlipSystem(GOLDEN).invariant_window(8).arcs
        of = CutPoint.of.__func__
        calls = []

        def counted(cls, theta, n):
            calls.append(n)
            return of(cls, theta, n)

        monkeypatch.setattr(CutPoint, "of", classmethod(counted))
        assert systems._arc_hits(arc, 1, 1, 10 ** 4) == (13, 21)
        assert len(calls) == 2 + 21

    @pytest.mark.parametrize("doubled", [False, True])
    def test_late_return_fails_in_closed_form_as_in_the_loop(self, doubled):
        # theta = sqrt(2)/10^6 and a base of length about 0.4: k+ = 1, but
        # k- is about 0.6/theta, past the 10 * ceil(1/measure) + 10 = 40
        # steps that both routes allow
        theta = Theta(p=0, q=1, d=2, r=10 ** 6)
        if doubled:
            system, z = DoubledSystem(theta), ClopenSet.arc(theta, 0, 282_843)
            y = DoubledClopen(z, z)
        else:
            system, y = DenjoyFlipSystem(theta), ClopenSet.arc(theta, -494_975, 494_975)
        assert systems._narrow(system._arc_copies(y)) is not None
        assert ceil_inverse_measure(y.measure()) == 3
        for route in (lambda: systems._step_returns(system, y, 1, 40),
                      lambda: system.first_returns(y, 1, 40),
                      lambda: first_return_castle(system, y)):
            with pytest.raises(VerificationError, match="no full return after 40 steps"):
                route()

    @pytest.mark.parametrize("doubled", [False, True])
    def test_late_middle_piece_fails_in_closed_form_as_in_the_loop(self, doubled):
        # golden [-5 theta, 5 theta) returns at 3, 5 and 8, and [0, 7 theta)
        # on both copies at 2, 3 and 5: allowed one step fewer than the
        # middle piece's return time, both routes refuse the base
        if doubled:
            z = ClopenSet.arc(GOLDEN, 0, 7)
            system, y, late = DoubledSystem(GOLDEN), DoubledClopen(z, z), 5
        else:
            system, y, late = DenjoyFlipSystem(GOLDEN), ClopenSet.arc(GOLDEN, -5, 5), 8
        assert systems._narrow(system._arc_copies(y)) is not None
        assert len(system.first_returns(y, 1, late)) == 3
        assert max(system.first_returns(y, 1, late)) == late
        for route in (lambda: systems._step_returns(system, y, 1, late - 1),
                      lambda: system.first_returns(y, 1, late - 1)):
            with pytest.raises(VerificationError, match=f"no full return after {late - 1} steps"):
                route()

    @pytest.mark.parametrize("case", ["circle-golden-arc", "circle-golden-window-8",
                                      "doubled-golden-window-4"])
    @pytest.mark.parametrize("end", ["left", "right"])
    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("which", [0, 1])
    def test_moved_piece_end_fails_verification(self, monkeypatch, case, end, shift, which):
        # one end of one closed-form piece moved to the cut of the next or
        # previous index: the castle built on it is refused
        _, system, base, _, _ = CASTLES[case]
        closed_form = systems._arc_returns
        moved = []

        def moving(*args):
            pieces = closed_form(*args)
            if not moved:
                k = sorted(pieces)[which]
                (arc,) = pieces[k].arcs
                theta = arc.left.theta
                ends = {"left": arc.left.n, "right": arc.right.n}
                ends[end] += shift
                pieces[k] = ClopenSet.arc(theta, ends["left"], ends["right"])
                moved.append(k)
            return pieces

        monkeypatch.setattr(systems, "_arc_returns", moving)
        with pytest.raises(VerificationError):
            first_return_castle(system, base)
        assert moved


#: A system per family whose certificates at eps 1/3 to 1/25 are built
#: in well under a second
CERTIFIED = {"circle": DenjoyFlipSystem(GOLDEN), "doubled": DoubledSystem(GOLDEN),
             "odometer": OdometerSystem([3, 9, 27, 81])}


class TestCertificateBaseContract:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("q", [3, 10, 25])
    def test_base_proves_its_translates_disjoint(self, family, q):
        # each family proposes a flip-invariant base and a count n of its
        # first translates that are pairwise disjoint, so that the
        # certificate is the base's first-return castle, started at step n
        system, eps = CERTIFIED[family], Fraction(1, q)
        y, n = system.certificate_base(DEFAULT_TEST_SET, eps)
        assert system.act(FLIP, y) == y
        assert system.partition_flags([system.act(phi(k), y) for k in range(n)])[0]
        castle, ratios = almost_finite_certificate(system, DEFAULT_TEST_SET, eps)
        assert castle == first_return_castle(system, y)
        assert min(castle.return_times()) >= n
        assert max(ratios) < eps

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(theta=quadratic_thetas(), doubled=st.booleans(), window=st.integers(1, 64),
           n=st.integers(1, 40))
    def test_translates_disjoint_matches_the_sweep(self, theta, doubled, window, n):
        # the scan of cut keys answers as the sweep of the window's first n
        # translates does, for wide windows and windows that T moves
        # partly onto themselves too
        system = (DoubledSystem if doubled else DenjoyFlipSystem)(theta)
        y = system.invariant_window(window)
        translates = [system.act(phi(k), y) for k in range(n)]
        assert systems._translates_disjoint(system, y, n) == system.partition_flags(translates)[0]


def reference_cover_indices(target, cells):
    """The set-operation route: intersect the target with every cell."""
    picked = []
    for i, c in enumerate(cells):
        inter = c.intersection(target)
        if inter.is_empty():
            continue
        if inter != c:
            raise ValueError("target is not a union of the given cells")
        picked.append(i)
    union = None
    for i in picked:
        union = cells[i] if union is None else union.union(cells[i])
    if union is None or not target.difference(union).is_empty():
        raise ValueError("target is not covered by the given cells")
    return picked


def reference_cover_matrix(coarse, fine):
    mat = [[0] * len(coarse) for _ in range(len(fine))]
    for j, c in enumerate(coarse):
        for i in reference_cover_indices(c, fine):
            mat[i][j] = 1
    return mat


def reference_pullback_matrix(system, g, src_cells, dst_cells):
    mat = [[0] * len(src_cells) for _ in range(len(dst_cells))]
    for j, c in enumerate(src_cells):
        for i in reference_cover_indices(system.act(g.inverse(), c), dst_cells):
            mat[i][j] = 1
    return mat


def as_columns(rows, ncols):
    """A reference's list of rows as the library's sparse columns."""
    return sparse(columns(rows, ncols))


REFLECTED = GroupElement(1, 1)

#: (family, system, requested top level, whole space) of the levels
#: homology builds: three cut circles to level 8, and the suite's odometer
#: chains, whose levels stop at the last one of at most 512 cosets
LEVEL_SYSTEMS = {
    **{f"circle-{name}": ("circle", DenjoyFlipSystem(theta), 8, ClopenSet.full_circle(theta))
       for name, theta in zip(("golden", "sqrt2", "sqrt3"), CIRCLE_THETAS)},
    **{"odometer-" + "-".join(map(str, chain)): ("odometer", OdometerSystem(chain), len(chain),
                             LevelSet(chain[-1], frozenset(range(chain[-1]))))
       for chain in ODOMETER_CHAINS},
}

#: The elements each window's permutations are tried with: the two
#: reflections permute their own windows, every element permutes an
#: odometer level, and a circle window refuses the others
PERMUTATION_ELEMENTS = [TRANSLATION, FLIP, REFLECTED, GroupElement(-5, 1), GroupElement(7, 0)]


@cache
def built_levels(case):
    _, system, top, _ = LEVEL_SYSTEMS[case]
    return homology_levels(system, top)


def state_image(state, col):
    """The length state applied to one sparse column."""
    return [sum(row[i] * x for i, x in col.items()) for row in state]


@pytest.mark.parametrize("case", sorted(LEVEL_SYSTEMS))
class TestLevelContract:
    def test_windows_are_indexed_partitions(self, case):
        # each flip and reflected window holds its cells in the order of
        # its index, partitions the space by the union route, and is the
        # one argument the level matrices take: a plain list of the same
        # cells, or a slice, has no index and is refused
        _, system, _, whole = LEVEL_SYSTEMS[case]
        levels = built_levels(case)
        assert [(fine, coarse) for fine, coarse, *_ in levels] == \
            system.level_chain(len(levels))
        assert all(a[0] != b[0] for a, b in zip(levels, levels[1:]))
        for fine, coarse, *_ in levels:
            for window, g in ((fine, FLIP), (coarse, REFLECTED)):
                plain = list(window)
                assert [cover_indices(c, window) for c in window] == \
                    [[i] for i in range(len(window))]
                assert reference_partition_flags(whole, plain) == (True, True)
                assert type(window[1:]) is tuple
                for refused in (lambda: cover_indices(window[0], plain),
                                lambda: cover_indices(window[0], window[1:]),
                                lambda: cover_matrix(window, plain),
                                lambda: pullback_matrix(g, window, plain),
                                lambda: pullback_permutation(g, plain)):
                    with pytest.raises(ValueError):
                        refused()
                assert cover_matrix(plain, window) == pullback_matrix(IDENTITY, plain, window)
                assert sorted(pullback_permutation(g, window)) == list(range(len(window)))

    def test_matrices_match_set_reference(self, case):
        # the inclusions, the translation of the reflected window into
        # the flip window, and every permutation of a window are the
        # matrices that intersecting every pair of cells gives; where
        # the reference finds no permutation, the index refuses one too
        _, system, _, _ = LEVEL_SYSTEMS[case]
        below = None
        for level in built_levels(case):
            fine, coarse = level.fine, level.coarse
            assert level.within == as_columns(reference_cover_matrix(coarse, fine), len(coarse))
            if below is None:
                assert level.up is None
            else:
                want = reference_cover_matrix(below, fine)
                assert level.up == as_columns(want, len(below))
            want = reference_pullback_matrix(system, FLIP, fine, fine)
            assert [{p: 1} for p in level.flip] == as_columns(want, len(fine))
            want = reference_pullback_matrix(system, TRANSLATION, coarse, fine)
            assert pullback_matrix(TRANSLATION, coarse, fine) == as_columns(want, len(coarse))
            for window in dict.fromkeys((fine, coarse)):
                for g in PERMUTATION_ELEMENTS:
                    try:
                        want = as_columns(reference_pullback_matrix(system, g, window, window),
                                          len(window))
                    except ValueError:
                        assert (g, window) not in ((FLIP, fine), (REFLECTED, coarse))
                        with pytest.raises(ValueError):
                            pullback_permutation(g, window)
                        continue
                    assert pullback_matrix(g, window, window) == want
                    assert [{p: 1} for p in pullback_permutation(g, window)] == want
            below = fine

    def test_length_states(self, case):
        # each stage's length state kills its translation relations
        # within - pullback, is fixed by the flip, and maps the level
        # below's state through the inclusion scaled by c_t: 1 on a
        # circle, n_{t+1}/n_t on an odometer
        family, system, _, _ = LEVEL_SYSTEMS[case]
        levels = built_levels(case)
        states = [level.fine.length_state() for level in levels]
        for t, (level, state) in enumerate(zip(levels, states), 1):
            moves = pullback_matrix(TRANSLATION, level.coarse, level.fine)
            for kept, moved in zip(level.within, moves):
                assert state_image(state, kept) == state_image(state, moved)
            assert [[row[p] for p in level.flip] for row in state] == state
            if level.up is None:
                continue
            scale = 1 if family == "circle" else system.chain[t - 1] // system.chain[t - 2]
            below = states[t - 2]
            assert [state_image(state, col) for col in level.up] == \
                [[scale * row[j] for row in below] for j in range(len(below[0]))]
