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
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_dynamics.amenability import DEFAULT_TEST_SET
from dihedral_dynamics.exact_circle import GOLDEN, ClopenSet, Theta
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
                                      first_return_castle)

from dense import columns, sparse
from test_cli import mutated
from test_exact_circle import THETAS as CIRCLE_THETAS
from test_exact_circle import clopen_sets

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
        for fine, coarse, within, up in built_levels(case):
            assert within == as_columns(reference_cover_matrix(coarse, fine), len(coarse))
            if below is None:
                assert up is None
            else:
                want = reference_cover_matrix(below, fine)
                assert up == as_columns(want, len(below))
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
        states = [fine.length_state() for fine, *_ in levels]
        for t, ((fine, coarse, within, up), state) in enumerate(zip(levels, states), 1):
            for kept, moved in zip(within, pullback_matrix(TRANSLATION, coarse, fine)):
                assert state_image(state, kept) == state_image(state, moved)
            assert [[row[p] for p in pullback_permutation(FLIP, fine)] for row in state] == state
            if up is None:
                continue
            scale = 1 if family == "circle" else system.chain[t - 1] // system.chain[t - 2]
            below = states[t - 2]
            assert [state_image(state, col) for col in up] == \
                [[scale * row[j] for row in below] for j in range(len(below[0]))]
