"""The system contract, run once for every family.

The ``systems`` module docstring lists what castles, certificates and
the CLI ask of a system.  Each test here asks it of the cut circle, the
doubled circle and the odometer alike, with the family as a parameter,
so a new family passes or fails the same suite: the dihedral relations
and measure preservation under ``act``, ``set_from_json`` round trips,
``partition_flags`` against the union route, and first-return castles
over flip-invariant bases, rebuilt from their JSON.
"""

import json
from functools import cache, reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_dynamics.exact_circle import GOLDEN, ClopenSet, Theta
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
)
from dihedral_dynamics.towers import Castle, CastleReport, first_return_castle

from test_cli import mutated
from test_exact_circle import THETAS as CIRCLE_THETAS
from test_exact_circle import clopen_sets

FAMILIES = ["circle", "doubled", "odometer"]

ODOMETER_CHAINS = [[2, 4, 8, 16], [3, 9, 27, 81], [6, 36, 216, 1296], [2, 6, 12, 60, 120]]

ELEMENT = st.builds(GroupElement, st.integers(-6, 6), st.integers(0, 1))


@st.composite
def family_sets(draw, family):
    """A system of the family, a strategy for its clopen sets, and its
    whole space as such a set.

    Circle sets end at cuts of a window of golden, sqrt2 or sqrt3; an
    odometer's sets sit at any level that divides the chain's last one,
    not only at the chain's own levels."""
    if family == "odometer":
        chain = draw(st.sampled_from(ODOMETER_CHAINS))
        modulus = draw(st.sampled_from([m for m in range(1, chain[-1] + 1)
                                        if chain[-1] % m == 0]))
        residues = st.frozensets(st.integers(0, modulus - 1))
        return (OdometerSystem(chain), st.builds(LevelSet, st.just(modulus), residues),
                LevelSet(modulus, frozenset(range(modulus))))
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
    """(disjoint, covers) by growing a union one piece at a time."""
    disjoint = True
    union = None
    for s in pieces:
        if union is None:
            union = s
        else:
            if not union.intersection(s).is_empty():
                disjoint = False
            union = union.union(s)
    return disjoint, union is not None and union == full


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
        # space with one piece dropped or repeated
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
