import json
import random
import time
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_dynamics import exact_circle
from dihedral_dynamics.exact_circle import (
    GOLDEN,
    Arc,
    ClopenSet,
    CutPoint,
    QuadExt,
    Theta,
    _int_sign,
    _is_squarefree,
    _sweep,
    format_point,
    frac,
    qe_cmp,
    sort_by_cut,
    sweep_partition,
)
from dihedral_dynamics.systems import DenjoyFlipSystem, GroupElement


def is_partition(sets):
    """True iff the sets are pairwise disjoint and cover the circle."""
    disjoint, covers = sweep_partition(sets)
    return disjoint and covers


def q(theta, a, b=0):
    return QuadExt(Fraction(a), Fraction(b), theta)


class TestOrder:
    def test_theta_above_half(self, golden):
        # 2*theta = sqrt5 - 1 compared with 1 reduces to 5 > 4
        assert qe_cmp(q(golden, 0, 1), q(golden, Fraction(1, 2))) == 1

    def test_reflexive(self, golden):
        x = q(golden, Fraction(3, 7), Fraction(-2, 5))
        assert qe_cmp(x, x) == 0

    def test_one_minus_theta_below_theta(self, golden):
        assert qe_cmp(q(golden, 1, -1), q(golden, 0, 1)) == -1

    def test_equality_matches_comparison(self, golden):
        rng = random.Random(71)
        for _ in range(300):
            x = QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)), golden)
            y = QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)), golden)
            assert (qe_cmp(x, y) == 0) == (x == y)

    def test_total_order_against_float(self, golden, sqrt2_theta):
        rng = random.Random(101)
        for theta in (golden, sqrt2_theta):
            tf = float(theta)
            for _ in range(5000):
                x = QuadExt(Fraction(rng.randint(-100, 100), rng.randint(1, 50)),
                            Fraction(rng.randint(-100, 100), rng.randint(1, 50)), theta)
                y = QuadExt(Fraction(rng.randint(-100, 100), rng.randint(1, 50)),
                            Fraction(rng.randint(-100, 100), rng.randint(1, 50)), theta)
                fx = float(x.a) + float(x.b) * tf
                fy = float(y.a) + float(y.b) * tf
                if abs(fx - fy) > 1e-6:
                    assert qe_cmp(x, y) == (1 if fx > fy else -1)


class TestFrac:
    def test_shift_by_one(self, golden):
        theta = q(golden, 0, 1)
        assert frac(theta.shift(1)) == theta

    def test_negative(self, golden):
        assert frac(q(golden, 0, -1)) == q(golden, 1, -1)

    def test_triple_theta(self, golden):
        # 3*theta is about 1.854, so the fractional part is 3*theta - 1
        assert frac(q(golden, 0, 3)) == q(golden, -1, 3)

    def test_floor_consistency_random(self, golden):
        rng = random.Random(7)
        for _ in range(500):
            x = QuadExt(Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
                        Fraction(rng.randint(-400, 400), rng.randint(1, 40)), golden)
            f = frac(x)
            assert f.sign() >= 0
            assert (f - q(golden, 1)).sign() < 0
            assert (x - f).b == 0 and (x - f).a.denominator == 1


BIG = 10 ** 40


class TestFloorScaled:
    @given(theta=st.sampled_from([Theta(p=-1, q=1, d=5, r=2), Theta(p=-1, q=1, d=2, r=1),
                                  Theta(p=-1, q=1, d=3, r=2)]),
           a=st.integers(-BIG, BIG), b=st.integers(-BIG, BIG), den=st.integers(1, BIG))
    @settings(max_examples=300, deadline=None)
    def test_floor_brackets_the_value(self, theta, a, b, den):
        # k <= (a + b*theta) / den < k + 1, by exact signs of a - k*den + b*theta
        k = theta.floor_scaled(a, b, den)
        assert theta.sign_of(Fraction(a - k * den), Fraction(b)) >= 0
        assert theta.sign_of(Fraction(a - (k + 1) * den), Fraction(b)) < 0


class TestTheta:
    def test_validation(self):
        with pytest.raises(ValueError):
            Theta(p=1, q=0, d=5, r=2)          # rational
        with pytest.raises(ValueError):
            Theta(p=-1, q=1, d=4, r=2)         # square
        with pytest.raises(ValueError):
            Theta(p=-1, q=1, d=12, r=2)        # not squarefree
        with pytest.raises(ValueError):
            Theta(p=1, q=1, d=5, r=2)          # > 1
        with pytest.raises(ValueError):
            Theta(p=-1, q=-1, d=5, r=2)        # < 0

    def test_json_round_trip(self, golden):
        assert Theta.from_json(json.loads(json.dumps(golden.to_json()))) == golden

    def test_squarefree_matches_trial_division(self):
        for d in range(1, 10_000):
            assert _is_squarefree(d) == reference_is_squarefree(d), d

    def test_squarefree_large_prime_squares(self):
        p = 1_000_003                           # prime, above the cube root of p*p
        assert not _is_squarefree(p * p)
        assert not _is_squarefree(2 * p * p)
        assert _is_squarefree(p * 1_000_033)    # two distinct large primes

    def test_large_d_is_fast(self):
        # d = 2^61 - 1 is prime: the full trial division runs to its cube root
        d = (1 << 61) - 1
        start = time.perf_counter()
        theta = Theta(p=-isqrt(d), q=1, d=d, r=1)
        assert time.perf_counter() - start < 5
        assert 0 < float(theta) < 1

    def test_range_checked_before_squarefree(self):
        # d near 10^15 with theta > 1: rejected by the sign check at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match="less than 1"):
            Theta(p=0, q=1, d=10 ** 15 + 37, r=1)
        assert time.perf_counter() - start < 1

    def test_huge_d_rejected(self):
        with pytest.raises(ValueError, match="2\\^63"):
            Theta(p=-(1 << 40), q=1, d=(1 << 80) + 1, r=1)


def reference_is_squarefree(d: int) -> bool:
    """Square-free test by trial division up to sqrt(d)."""
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


class TestCutPoint:
    def test_canonical_unique(self, golden):
        c = CutPoint.of(golden, 3)
        assert c.m == -1
        with pytest.raises(ValueError):
            CutPoint(n=3, m=0, theta=golden)

    def test_equality_by_index(self, golden):
        assert CutPoint.of(golden, 5) == CutPoint.of(golden, 5)
        assert CutPoint.of(golden, 5) != CutPoint.of(golden, -5)

    def test_json_round_trip(self, golden):
        c = CutPoint.of(golden, -7)
        assert CutPoint.from_json(golden, json.loads(json.dumps(c.to_json()))) == c

    def test_one_cut_per_index(self):
        theta = Theta(p=-1, q=1, d=5, r=2)
        c = CutPoint.of(theta, 12)
        assert CutPoint.of(theta, 12) is c
        assert CutPoint.from_json(theta, c.to_json()) is c
        # the table takes no part in equality: a theta with a filled table
        # equals a fresh one, and their cuts are equal
        fresh = Theta(p=-1, q=1, d=5, r=2)
        assert fresh == theta and hash(fresh) == hash(theta)
        assert CutPoint.of(fresh, 12) == c
        assert CutPoint(n=12, m=c.m, theta=theta).key == c.key

    @pytest.mark.parametrize("dm", [-1, 1, 7])
    def test_json_with_wrong_m_is_refused(self, golden, dm):
        c = CutPoint.of(golden, 9)
        with pytest.raises(ValueError, match="non-canonical cut point"):
            CutPoint.from_json(golden, {"m": c.m + dm, "n": 9})
        arc = {"left": {"m": c.m + dm, "n": 9}, "right": CutPoint.of(golden, 2).to_json()}
        with pytest.raises(ValueError, match="non-canonical cut point"):
            ClopenSet.from_json(golden, {"arcs": [arc]})
        # the refused cut leaves the table's cut as it was
        assert CutPoint.of(golden, 9) is c


# golden, sqrt2 - 1, sqrt2/10^6 (tiny), 1 - sqrt2/10^6 (near 1), sqrt3/10^9
THETA_FIELDS = [(-1, 1, 5, 2), (-1, 1, 2, 1), (0, 1, 2, 10 ** 6), (10 ** 6, -1, 2, 10 ** 6),
                (0, 1, 3, 10 ** 9)]
# a fresh theta per draw, so that every example fills its own cut table
FRESH_THETAS = st.sampled_from(THETA_FIELDS).map(lambda f: Theta(*f))
INDICES = st.lists(st.integers(-400, 400) | st.integers(-10 ** 12, 10 ** 12),
                   min_size=1, max_size=30, unique=True)


def reference_cmp(x, y):
    """Exact order of two cuts by the sign of their difference alone."""
    t = x.theta
    return _int_sign((x.m - y.m) * t.r + (x.n - y.n) * t.p, (x.n - y.n) * t.q, t.d)


def reference_sorted(cuts):
    return sorted(cuts, key=cmp_to_key(reference_cmp))


def reference_normal_form(cuts, pairs):
    """(full, [(left n, right n), ...]) of the union of the arcs between
    the given cut indices, from the reference order of their ends."""
    ends = reference_sorted({cuts[n] for pair in pairs for n in pair})
    pos = {c.n: i for i, c in enumerate(ends)}
    t = len(ends)
    inside = [False] * t
    for left, right in pairs:
        i = pos[left]
        while i != pos[right]:
            inside[i] = True
            i = (i + 1) % t
    if ends and all(inside):
        return True, []
    arcs = []
    for i in range(t):
        if inside[i] and not inside[i - 1]:
            j = (i + 1) % t
            while inside[j]:
                j = (j + 1) % t
            arcs.append((ends[i].n, ends[j].n))
    return False, arcs


def check_exact_order(theta, indices, pairs, shift):
    """Every route that orders cuts gives the reference order."""
    bits = exact_circle._KEY_BITS
    cuts = {n: CutPoint.of(theta, n) for n in indices}
    for c in cuts.values():
        # canonical, and key = floor((m + n*theta) * 2^bits), by exact signs
        assert _int_sign(c.m * theta.r + c.n * theta.p, c.n * theta.q, theta.d) >= 0
        assert _int_sign((c.m - 1) * theta.r + c.n * theta.p, c.n * theta.q, theta.d) < 0
        scaled = (c.m << bits) * theta.r + (c.n << bits) * theta.p
        assert _int_sign(scaled - c.key * theta.r, (c.n << bits) * theta.q, theta.d) >= 0
        assert _int_sign(scaled - (c.key + 1) * theta.r, (c.n << bits) * theta.q, theta.d) < 0
    want = reference_sorted(cuts.values())
    shuffled = list(cuts.values())
    random.Random(len(indices)).shuffle(shuffled)
    assert sort_by_cut(shuffled) == want
    assert sorted(shuffled) == want
    assert sort_by_cut([Arc(c, cuts[indices[0]]) for c in shuffled if c.n != indices[0]],
                       "left") == [Arc(c, cuts[indices[0]]) for c in want if c.n != indices[0]]

    arcs = [Arc(cuts[a], cuts[b]) for a, b in pairs]
    swept = [c for c, _ in _sweep((arcs,), (0,))]
    assert swept == reference_sorted({c for a in arcs for c in (a.left, a.right)})
    full, normal = reference_normal_form(cuts, pairs)
    s = ClopenSet.from_arcs(theta, arcs)
    assert s.full == full
    assert [(a.left.n, a.right.n) for a in s.arcs] == normal
    # the image under a translation is put back in order by its left cuts
    moved = DenjoyFlipSystem(theta).act(GroupElement(shift, 0), s)
    assert [a.left for a in moved.arcs] == reference_sorted(a.left for a in moved.arcs)


@st.composite
def order_cases(draw):
    theta = draw(FRESH_THETAS)
    indices = draw(INDICES)
    pairs = draw(st.lists(st.tuples(st.sampled_from(indices), st.sampled_from(indices))
                          .filter(lambda p: p[0] != p[1]), max_size=8)) if len(indices) > 1 else []
    return theta, indices, pairs, draw(st.integers(-50, 50))


class TestIntegerKeyOrder:
    """Cuts ordered by integer key, equal keys settled exactly, give the
    exact order of the cut values."""

    @settings(max_examples=150, deadline=None)
    @given(case=order_cases())
    def test_key_order_is_exact(self, case):
        check_exact_order(*case)

    @settings(max_examples=150, deadline=None)
    @given(case=order_cases())
    def test_equal_keys_settled_exactly(self, case):
        # 4-bit keys: many cuts share a key, so the exact re-sort of each
        # run of equal keys decides their order
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact_circle, "_KEY_BITS", 4)
            check_exact_order(*case)

    def test_four_bit_keys_tie(self):
        # cuts n*theta for n = 1..20 on theta = sqrt2/10^6 all lie below
        # 1/16, so at 4 bits they share key 0 and only exact signs order them
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact_circle, "_KEY_BITS", 4)
            theta = Theta(p=0, q=1, d=2, r=10 ** 6)
            cuts = [CutPoint.of(theta, n) for n in range(20, 0, -1)]
            assert {c.key for c in cuts} == {0}
            assert [c.n for c in sort_by_cut(cuts)] == list(range(1, 21))
            assert [c.n for c in sort_by_cut(cuts)] == [c.n for c in reference_sorted(cuts)]

    def test_sweep_decides_wraps_by_key(self, monkeypatch):
        # an arc wraps past 0 when its right cut lies below its left one:
        # distinct keys decide that with no exact comparison, and cuts
        # that share a key are compared exactly, either way round
        calls = []
        exact = CutPoint._cmp

        def counting(self, other):
            calls.append((self.n, other.n))
            return exact(self, other)

        monkeypatch.setattr(CutPoint, "_cmp", counting)
        one, two = CutPoint.of(GOLDEN, 1), CutPoint.of(GOLDEN, 2)
        assert one.key != two.key
        for left, right in ((one, two), (two, one)):
            wraps = right.key < left.key
            assert [d for _, d in _sweep(([Arc(left, right)],), (0,))] == (
                [(0,), (1,)] if wraps else [(1,), (0,)])
        assert calls == []
        monkeypatch.setattr(exact_circle, "_KEY_BITS", 4)
        theta = Theta(p=0, q=1, d=2, r=10 ** 6)
        three, five = CutPoint.of(theta, 3), CutPoint.of(theta, 5)
        assert three.key == five.key
        # 3*theta < 5*theta: (3, 5) covers the gap between them, (5, 3) the rest
        assert [d for _, d in _sweep(([Arc(three, five)],), (0,))] == [(1,), (0,)]
        assert [d for _, d in _sweep(([Arc(five, three)],), (0,))] == [(0,), (1,)]
        assert calls

    def test_above_half(self):
        for fields in THETA_FIELDS:
            theta = Theta(*fields)
            for n in range(-60, 61):
                c = CutPoint.of(theta, n)
                half = theta.sign_of(c.value.a - Fraction(1, 2), c.value.b) > 0
                assert c.above_half() == half


def exact_fields(theta, n, bits):
    """(m, key) of the cut of index n from its own exact floor."""
    scaled = theta.floor_scaled(0, n << bits, 1)
    return -(scaled >> bits), scaled & ((1 << bits) - 1)


def wide_floor_routes(theta, bits, indices):
    """(settled, at_edge) among ``indices``: those whose m and key the
    one wide floor floor(theta * 2^(2*bits)) settles, and those of them
    whose bracket ends exactly on a multiple of 2^bits."""
    wide = theta.floor_scaled(0, 1 << 2 * bits, 1)
    settled, at_edge = set(), set()
    for n in indices:
        low = n * wide & ((1 << bits) - 1)
        room = (1 << bits) - low if n > 0 else low
        if 0 < abs(n) <= room:
            settled.add(n)
            if abs(n) == room:
                at_edge.add(n)
    return settled, at_edge


class TestWideFloor:
    """Every cut's m and key equal those of its own exact floor, whether
    the theta's one wide floor settles them or the exact fallback does."""

    @pytest.mark.parametrize("fields", THETA_FIELDS)
    def test_indices_beyond_the_key_width(self, fields):
        theta = Theta(*fields)
        bits = exact_circle._KEY_BITS
        huge = [1 << 64, (1 << 64) - 1, (1 << 64) + 1, -(1 << 64), 1 - (1 << 64),
                -(1 << 64) - 1, 3 << 70 | 5, -(1 << 100) - 7, 10 ** 40 + 1]
        # the bracket of an index above 2^64 is wider than a key step
        assert all(abs(n) <= 1 << 64 for n in wide_floor_routes(theta, bits, huge)[0])
        for n in huge:
            c = CutPoint.of(theta, n)
            assert (c.m, c.key) == exact_fields(theta, n, bits)

    def test_indices_near_a_key_boundary(self):
        # at 8 bits most indices up to 300 bracket a multiple of 2^8 and
        # fall back to the exact floor, and some end exactly on one; on
        # sqrt3/95 the bracket of index 3 passes a multiple by one unit,
        # and 3*theta * 2^8 lies past it
        indices = range(-300, 301)
        edges = set()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact_circle, "_KEY_BITS", 8)
            for fields in THETA_FIELDS + [(0, 1, 3, 95)]:
                theta = Theta(*fields)
                settled, at_edge = wide_floor_routes(theta, 8, indices)
                assert 0 < len(settled) < len(indices) - 1
                edges |= at_edge
                for n in indices:
                    c = CutPoint.of(theta, n)
                    assert (c.m, c.key) == exact_fields(theta, n, 8)
        assert {32, -32, 128, -128, 255, -255} <= edges

    def test_one_wide_floor_per_theta(self, monkeypatch):
        # golden, sqrt2 - 1 and sqrt2/10^6 with 64-bit keys: each theta
        # takes its wide floor and the exact floor of index 0, and no
        # index up to 5000 brackets a multiple of 2^64
        calls = 0
        exact = Theta.floor_scaled

        def counting(self, a, b, den):
            nonlocal calls
            calls += 1
            return exact(self, a, b, den)

        monkeypatch.setattr(Theta, "floor_scaled", counting)
        for fields in [(-1, 1, 5, 2), (-1, 1, 2, 1), (0, 1, 2, 10 ** 6)]:
            theta = Theta(*fields)
            for n in range(-5000, 5001):
                CutPoint.of(theta, n)
        assert calls == 6


def random_clopen(theta, rng, max_arcs=10):
    indices = rng.sample(range(-50, 51), rng.randint(2, 2 * max_arcs))
    arcs = []
    for i in range(0, len(indices) - 1, 2):
        a, b = indices[i], indices[i + 1]
        if a != b:
            arcs.append(Arc(CutPoint.of(theta, a), CutPoint.of(theta, b)))
    return ClopenSet.from_arcs(theta, arcs)


THETAS = [Theta(p=-1, q=1, d=5, r=2), Theta(p=-1, q=1, d=2, r=1), Theta(p=-1, q=1, d=3, r=2)]
WINDOW = range(-8, 9)


@st.composite
def clopen_sets(draw, theta):
    """A clopen set whose arcs end at cuts of the window, full one time in ten."""
    if draw(st.integers(0, 9)) == 0:
        return ClopenSet.full_circle(theta)
    ends = st.tuples(st.sampled_from(WINDOW), st.sampled_from(WINDOW)).filter(
        lambda e: e[0] != e[1])
    return ClopenSet.from_arcs(theta, [Arc(CutPoint.of(theta, a), CutPoint.of(theta, b))
                                       for a, b in draw(st.lists(ends, max_size=4))])


def sample_points(theta):
    """Every cut of the window and one point strictly inside each gap.

    A set with ends in the window is constant on each gap and contains a
    cut's value exactly when it contains the cut's right copy, so these
    points decide it.
    """
    cuts = sorted(CutPoint.of(theta, n).value for n in WINDOW)
    nxt = cuts[1:] + [cuts[0].shift(1)]
    return cuts + [((x + y) * Fraction(1, 2)).frac() for x, y in zip(cuts, nxt)]


class TestClopenAlgebraPointwise:
    """Set operations agree with membership at exact points."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), theta=st.sampled_from(THETAS))
    def test_operations(self, data, theta):
        a, b = data.draw(clopen_sets(theta)), data.draw(clopen_sets(theta))
        results = (a.union(b), a.intersection(b), a.difference(b), a.complement())
        for x in sample_points(theta):
            ina, inb = a.contains_value(x), b.contains_value(x)
            assert [r.contains_value(x) for r in results] == \
                [ina or inb, ina and inb, ina and not inb, not ina]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), theta=st.sampled_from(THETAS))
    def test_from_arcs(self, data, theta):
        # overlapping, wrapping and repeated arcs, each tested on its own
        ends = st.tuples(st.sampled_from(WINDOW), st.sampled_from(WINDOW)).filter(
            lambda e: e[0] != e[1])
        pairs = data.draw(st.lists(ends, max_size=6))
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
        arcs = [Arc(CutPoint.of(theta, a), CutPoint.of(theta, b)) for a, b in pairs]
        s = ClopenSet.from_arcs(theta, arcs)
        for x in sample_points(theta):
            assert s.contains_value(x) == any(a.contains_value(x) for a in arcs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), theta=st.sampled_from(THETAS))
    def test_laws(self, data, theta):
        a, b, c = (data.draw(clopen_sets(theta)) for _ in range(3))
        assert a.union(b) == b.union(a)
        assert a.intersection(b) == b.intersection(a)
        assert a.union(b.union(c)) == a.union(b).union(c)
        assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
        assert a.union(b).complement() == a.complement().intersection(b.complement())
        assert a.difference(b) == a.intersection(b.complement())
        assert a.union(a.complement()).full
        assert a.intersection(a.complement()).is_empty()
        assert a.complement().complement() == a


class TestClopenAlgebra:
    def test_complement_of_basic_arc(self, golden):
        a = ClopenSet.arc(golden, 0, 1)       # [0+, theta+)
        c = a.complement()
        assert c == ClopenSet.arc(golden, 1, 0)

    def test_partition_pair(self, golden):
        a = ClopenSet.arc(golden, 0, 1)
        b = ClopenSet.arc(golden, 1, 0)
        assert is_partition([a, b])
        assert a.intersection(b).is_empty()

    def test_normal_form_idempotent(self, golden):
        rng = random.Random(23)
        for _ in range(300):
            indices = [rng.randint(-50, 50) for _ in range(rng.randint(2, 16))]
            arcs = []
            for i in range(0, len(indices) - 1, 2):
                if indices[i] != indices[i + 1]:
                    arcs.append(Arc(CutPoint.of(golden, indices[i]),
                                    CutPoint.of(golden, indices[i + 1])))
            s1 = ClopenSet.from_arcs(golden, arcs)
            # renormalizing the normal form must be the identity; the
            # full circle is a flag, not an arc list
            assert s1.union(ClopenSet.empty(golden)) == s1
            if not s1.full:
                assert ClopenSet.from_arcs(golden, s1.arcs) == s1

    def test_boolean_laws(self, golden):
        rng = random.Random(42)
        for _ in range(60):
            a = random_clopen(golden, rng)
            b = random_clopen(golden, rng)
            c = random_clopen(golden, rng)
            assert a.union(b).complement() == a.complement().intersection(b.complement())
            assert a.intersection(b).complement() == a.complement().union(b.complement())
            assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
            assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
            assert a.difference(b) == a.intersection(b.complement())
            assert a.complement().complement() == a

    def test_full_and_empty(self, golden):
        full = ClopenSet.full_circle(golden)
        empty = ClopenSet.empty(golden)
        assert full.complement() == empty
        assert empty.complement() == full
        a = ClopenSet.arc(golden, 2, -3)
        assert a.union(a.complement()) == full
        assert a.intersection(a.complement()) == empty

    def test_measure(self, golden):
        a = ClopenSet.arc(golden, 0, 1)
        assert a.measure() == QuadExt(Fraction(0), Fraction(1), golden)
        assert ClopenSet.full_circle(golden).measure() == QuadExt(Fraction(1), Fraction(0), golden)
        s = a.union(a.complement())
        assert s.measure() == QuadExt(Fraction(1), Fraction(0), golden)

    def test_measure_additive_random(self, golden):
        rng = random.Random(5)
        one = QuadExt(Fraction(1), Fraction(0), golden)
        for _ in range(40):
            a = random_clopen(golden, rng)
            b = random_clopen(golden, rng)
            lhs = a.union(b).measure() + a.intersection(b).measure()
            rhs = a.measure() + b.measure()
            assert lhs == rhs
            assert a.measure() + a.complement().measure() == one

    def test_arc_properness(self, golden):
        with pytest.raises(ValueError):
            Arc(CutPoint.of(golden, 2), CutPoint.of(golden, 2))

    def test_json_round_trip(self, golden):
        rng = random.Random(9)
        for _ in range(20):
            s = random_clopen(golden, rng)
            data = json.loads(json.dumps(s.to_json()))
            assert ClopenSet.from_json(golden, data) == s
        full = ClopenSet.full_circle(golden)
        assert ClopenSet.from_json(golden, full.to_json()) == full


class TestSweepCost:
    def test_from_arcs_is_n_log_n(self, golden, monkeypatch):
        # 2000 disjoint arcs in shuffled order; testing every arc at every
        # cut made about 685 * n * log2(n) exact comparisons
        n = 2000
        cuts = sorted(CutPoint.of(golden, k) for k in range(-n, n))
        ordered = tuple(Arc(cuts[i], cuts[i + 1]) for i in range(0, 2 * n, 2))
        arcs = list(ordered)
        random.Random(19).shuffle(arcs)
        calls = 0
        compare = CutPoint._cmp

        def counting(self, other):
            nonlocal calls
            calls += 1
            return compare(self, other)

        monkeypatch.setattr(CutPoint, "_cmp", counting)
        s = ClopenSet.from_arcs(golden, arcs)
        assert calls <= 4 * n * log2(n)
        assert s.arcs == ordered


class TestFormat:
    def test_display(self, golden):
        assert format_point(q(golden, Fraction(1, 2))) == "1/2"
        assert format_point(QuadExt(Fraction(0), Fraction(1, 2), golden)) == "theta/2"
        assert format_point(QuadExt(Fraction(1, 2), Fraction(1, 2), golden)) == "(1+theta)/2"
