from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_dynamics.amenability import (
    DEFAULT_TEST_SET,
    folner,
    folner_ratio,
    is_transversal,
)
from dihedral_dynamics.systems import FLIP, GroupElement, IDENTITY, LevelSet, OdometerSystem
from dihedral_dynamics.towers import first_return_castle


ELEMENTS = st.builds(GroupElement, st.integers(-30, 30), st.integers(0, 1))


def naive_ratio(elements, test_set):
    """Reference ratio computed on raw element sets."""
    f = set(elements)
    kf = {k * g for k in test_set for g in f}
    return Fraction(len(kf ^ f), len(f))


class TestFolnerSets:
    def test_even_window(self):
        assert [g.to_json() for g in folner(4)] == [[-2, 1], [-1, 1], [0, 0], [1, 0]]

    def test_singleton(self):
        assert [g.to_json() for g in folner(1)] == [[0, 0]]

    def test_odd_window(self):
        assert [g.to_json() for g in folner(3)] == [[-1, 1], [0, 0], [1, 0]]

    def test_sizes_and_distinct(self):
        for m in list(range(1, 50)) + [513, 1024]:
            f = folner(m)
            elems = f.elements
            assert len(elems) == m
            assert len(set(elems)) == m

    def test_m_validation(self):
        with pytest.raises(ValueError):
            folner(0)


class TestTransversality:
    def test_small_windows(self):
        for m in range(1, 2001):
            assert is_transversal(folner(m), m)

    def test_general_iterable(self):
        assert not is_transversal([GroupElement(0, 0), GroupElement(0, 1)], 2)
        assert is_transversal([GroupElement(0, 0), GroupElement(5, 1)], 2)

    def test_fast_path_matches_general(self):
        for m in (1, 2, 3, 7, 16, 33, 100):
            assert is_transversal(folner(m), m) == is_transversal(list(folner(m)), m)
            # against a mismatched modulus both paths must agree too
            assert is_transversal(folner(m), m + 1) == is_transversal(list(folner(m)), m + 1)


class TestRatios:
    def test_even_window_example(self):
        assert folner_ratio(folner(4), DEFAULT_TEST_SET) == Fraction(1, 2)

    def test_identity_only(self):
        assert folner_ratio(folner(7), [IDENTITY]) == 0

    def test_closed_form_even(self):
        for m in range(2, 513, 2):
            assert folner_ratio(folner(m), DEFAULT_TEST_SET) == Fraction(2, m)

    def test_against_naive_code(self):
        for m in (1, 2, 3, 4, 5, 8, 13, 32):
            for k in (DEFAULT_TEST_SET, [IDENTITY, GroupElement(-2, 1)],
                      [GroupElement(3, 0)], [FLIP]):
                assert folner_ratio(folner(m), k) == naive_ratio(folner(m).elements, k)

    def test_halving_does_not_increase(self):
        m = 4
        while m <= 4096:
            r1 = folner_ratio(folner(m), DEFAULT_TEST_SET)
            r2 = folner_ratio(folner(2 * m), DEFAULT_TEST_SET)
            assert r2 <= r1
            m *= 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            folner_ratio([], DEFAULT_TEST_SET)

    def test_empty_test_set(self):
        # K F is empty, so the whole of F is the symmetric difference
        assert folner_ratio(folner(5), []) == 1

    @settings(max_examples=300, deadline=None)
    @given(f=st.lists(ELEMENTS, min_size=1, max_size=40),
           k=st.lists(ELEMENTS, max_size=6))
    def test_runs_match_naive_on_random_sets(self, f, k):
        assert folner_ratio(f, k) == naive_ratio(f, k)
        assert folner_ratio(tuple(f), k) == folner_ratio(set(f), k)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 200), k=st.lists(ELEMENTS, max_size=6))
    def test_window_runs_match_naive(self, m, k):
        f = folner(m)
        assert folner_ratio(f, k) == naive_ratio(f.elements, k)


def cylinder(odo, n, j):
    """The class of 0 mod n_n inside Z/n_j: flip-invariant, and each of its
    points returns after exactly n_n steps."""
    n_j = odo.modulus(j)
    return LevelSet(n_j, frozenset(range(0, n_j, odo.modulus(n))))


class TestOdometerCastle:
    """First-return castles over level cylinders: one tower, whose shape is
    the n_n-element window, a coset transversal."""

    def test_small_chain(self):
        odo = OdometerSystem([2, 4, 8])
        castle = first_return_castle(odo, cylinder(odo, 1, 3))
        tower = castle.towers[0]
        assert sorted(tower.base.residues) == [0, 2, 4, 6]
        assert [g.to_json() for g in tower.shape] == [[-1, 1], [0, 0]]
        assert castle.verify().all_ok()

    def test_level_equals_index(self):
        odo = OdometerSystem([3, 9, 27])
        castle = first_return_castle(odo, cylinder(odo, 2, 2), proven_disjoint=9)
        assert sorted(castle.towers[0].base.residues) == [0]
        assert len(castle.towers[0].shape) == 9
        assert castle.verify().all_ok()

    def test_shape_invariance(self):
        odo = OdometerSystem([4, 8, 16, 32])
        for n in (1, 2, 3):
            castle = first_return_castle(odo, odo.invariant_window(n),
                                         proven_disjoint=odo.modulus(n))
            ratio = castle.shape_ratios(DEFAULT_TEST_SET)[0]
            assert ratio == Fraction(2, odo.modulus(n))

    def test_larger_levels_partition(self):
        odo = OdometerSystem([6, 36, 216, 1296])
        for n, j in ((1, 2), (2, 3), (1, 4), (3, 4)):
            castle = first_return_castle(odo, cylinder(odo, n, j),
                                         proven_disjoint=odo.modulus(n))
            assert castle.return_times() == (odo.modulus(n),)
            assert castle.verify().all_ok()

    def test_level_near_hundred_thousand(self):
        odo = OdometerSystem([10, 100, 100_000])
        castle = first_return_castle(odo, cylinder(odo, 1, 3), proven_disjoint=10)
        assert castle.verify().all_ok()
        assert len(castle.towers[0].base.residues) == 10_000

    def test_bad_levels(self):
        # a level outside the chain names no window
        odo = OdometerSystem([2, 4])
        for level in (0, 3):
            with pytest.raises(ValueError, match="level must be in 1..2"):
                odo.invariant_window(level)
