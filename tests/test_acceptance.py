"""Acceptance suite.

One test per criterion; each prints a PASS line with the checked claim
after its assertions go through.  All comparisons are exact; the only
tolerances are the two stated runtime ceilings.
"""

import json
import random
import time
from fractions import Fraction

from dihedral_dynamics.abgroups import FGAbGroup
from dihedral_dynamics.amenability import (
    DEFAULT_TEST_SET,
    folner,
    folner_ratio,
    is_transversal,
)
from dihedral_dynamics.exact_circle import ClopenSet, GOLDEN, QuadExt, frac
from dihedral_dynamics.homology import (
    bar_homology,
    coinvariants,
    even_homology,
    free_product_homology,
    homology_levels,
    homology_table,
    odd_homology,
)
from dihedral_dynamics.systems import (
    FLIP,
    DenjoyFlipSystem,
    DoubledSystem,
    GroupElement,
    OdometerSystem,
)
from dihedral_dynamics.towers import Castle, first_return_castle
from dihedral_dynamics.cli import main as cli_main

Z2 = FGAbGroup(0, (2,))
Z2_CUBED = FGAbGroup(0, (2, 2, 2))
ZERO = FGAbGroup(0)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_golden_circle_homology():
    start = time.monotonic()
    system = DenjoyFlipSystem(GOLDEN)
    table, prov = homology_table(system, max_level=16)
    elapsed = time.monotonic() - start
    assert table.entry(0) == FGAbGroup(2)
    for n in (1, 3, 5):
        assert table.entry(n) == Z2_CUBED
    for n in (2, 4):
        assert table.entry(n) == ZERO
    assert prov["stabilizedAt"] is not None and prov["stabilizedAt"] <= 16
    assert elapsed < 10.0
    _report(1, f"golden circle homology Z^2 / (Z/2)^3 / 0, stabilized at level "
               f"{prov['stabilizedAt']}, {elapsed:.2f}s < 10s")


def test_criterion_2_fixed_point_exactness():
    system = DenjoyFlipSystem(GOLDEN)
    flip_points = system.fixed_points(FLIP).points
    assert [(p.a, p.b) for p in flip_points] == [(Fraction(1, 2), Fraction(0))]
    refl = system.fixed_points(GroupElement(1, 1)).points
    assert {(p.a, p.b) for p in refl} == {
        (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))}
    for n in range(1, 51):
        assert system.fixed_points(GroupElement(n, 0)).points == ()
        assert system.fixed_points(GroupElement(-n, 0)).points == ()
    _report(2, "flip fixes exactly 1/2; reflected step fixes theta/2 and "
               "(1+theta)/2; rotations up to |n|=50 are free")


def test_criterion_3_first_return_castle():
    system = DenjoyFlipSystem(GOLDEN)
    y = ClopenSet.arc(GOLDEN, -1, 1)                     # [(1-theta)+, theta+)
    castle = first_return_castle(system, y)
    assert castle.return_times() == (3, 5)
    assert castle.towers[0].base == ClopenSet.arc(GOLDEN, -4, 1)
    assert castle.towers[1].base == ClopenSet.arc(GOLDEN, -1, -4)
    assert castle.verify().all_ok()

    measure_sum = None
    for t in castle.towers:
        part = t.base.measure() * t.return_time
        measure_sum = part if measure_sum is None else measure_sum + part
    assert measure_sum == QuadExt(Fraction(1), Fraction(0), GOLDEN)

    # independent oracle: pointwise orbit simulation at 10^4 sample points
    step = QuadExt(Fraction(0), Fraction(1), GOLDEN)
    rng = random.Random(31337)
    inside = 0
    for _ in range(10_000):
        x = QuadExt(Fraction(rng.randint(1, 10 ** 6 - 1), 10 ** 6), Fraction(0), GOLDEN)
        hits = [
            (t, k)
            for t in castle.towers
            for k in range(t.return_time)
            if t.base.contains_value(frac(x - step * k))
        ]
        assert len(hits) == 1          # the climbs partition the space
        if y.contains_value(x):
            inside += 1
            lam, z = 0, x
            while True:
                lam += 1
                z = frac(z + step)
                if y.contains_value(z):
                    break
            owner = next(t for t in castle.towers if t.base.contains_value(x))
            assert owner.return_time == lam
    assert inside > 1000
    _report(3, f"two towers with heights (3, 5), exact bases and measure "
               f"identity; orbit oracle agreed at 10^4 points ({inside} in the base)")


def test_criterion_4_window_transversality_and_ratio():
    for m in range(1, 10_001):
        assert is_transversal(folner(m), m)
    for m in range(2, 4097, 2):
        assert folner_ratio(folner(m), DEFAULT_TEST_SET) == Fraction(2, m)
    _report(4, "window sets are coset transversals for all m <= 10^4 and "
               "their generator ratio is exactly 2/m for even m <= 4096")


def test_criterion_5_certificate(tmp_path, capsys):
    start = time.monotonic()
    system_file = tmp_path / "denjoy.json"
    system_file.write_text(json.dumps(
        {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 5, "r": 2}}))
    out_file = tmp_path / "castle.json"
    code = cli_main(["certify", "--system", str(system_file), "--eps", "1/10",
                     "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out_file.read_text())
    for r in data["shapeRatios"]:
        num, den = map(int, r.split("/"))
        assert Fraction(num, den) < Fraction(1, 10)
    restored = Castle.from_json(data)                    # re-verify from JSON alone
    assert restored.verify().all_ok()
    assert all(folner_ratio(t.shape, DEFAULT_TEST_SET) < Fraction(1, 10)
               for t in restored.towers)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, f"certificate castle with heights {restored.return_times()} "
               f"re-verified from its JSON, ratios < 1/10, {elapsed:.2f}s < 30s")


def test_criterion_6_odometer_essential_freeness():
    chain = [12 * 2 ** i for i in range(8)]
    odo = OdometerSystem(chain)
    for level in range(1, len(chain) + 1):
        n = odo.modulus(level)
        assert odo.fixed_fraction(GroupElement(0, 1), level) == Fraction(2, n)
        assert odo.fixed_fraction(GroupElement(1, 1), level) == Fraction(0)
    _report(6, "chain 12*2^i: flip fixes exactly 2/n_i of each level and the "
               "reflected step fixes nothing")


def test_criterion_7_odometer_homology():
    odo3 = OdometerSystem([3 ** i for i in range(1, 7)])
    table3, prov3 = homology_table(odo3, max_level=6)
    assert table3.entry(1) == FGAbGroup(0, (2, 2))
    assert table3.entry(0).display == "Z[1/3]"
    threads3 = prov3["fixedThreads"]
    assert threads3["sigma"]["stabilizedAt"] <= 3
    assert threads3["phiSigma"]["stabilizedAt"] <= 3

    odo2 = OdometerSystem([2 ** i for i in range(1, 9)])
    table2, prov2 = homology_table(odo2, max_level=8)
    assert table2.entry(1) == Z2
    assert table2.entry(0).display == "Z[1/2]"
    threads2 = prov2["fixedThreads"]
    assert threads2["sigma"]["stabilizedAt"] <= 3
    assert threads2["phiSigma"]["stabilizedAt"] <= 3
    _report(7, "3^i gives H_odd (Z/2)^2 with H0 Z[1/3]; 2^i gives Z/2 with "
               "Z[1/2]; thread counts settle by level 3")


def test_criterion_8_bar_oracle_equivalence():
    rng = random.Random(20240)
    mismatches = 0
    cases = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        if rng.random() < 0.7:
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
            from dihedral_dynamics.homology import InvolutionModule

            module = InvolutionModule.from_permutation(perm)
        else:
            from dihedral_dynamics.homology import InvolutionModule

            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = rng.choice([1, -1])
            module = InvolutionModule.of(mat)
        for degree in range(6):
            expected = (coinvariants(module) if degree == 0
                        else odd_homology(module) if degree % 2
                        else even_homology(module))
            cases += 1
            if bar_homology(module, degree) != expected:
                mismatches += 1
    assert mismatches == 0
    _report(8, f"bar-complex oracle matched the closed formulas on {cases} "
               f"degree checks over 100 seeded modules; zero mismatches")


def test_criterion_9_two_path_consistency():
    system = DenjoyFlipSystem(GOLDEN)
    closed, prov = homology_table(system, max_level=16)
    fp = free_product_homology(homology_levels(system, 16))
    assert fp.h0 == closed.entry(0)
    assert fp.h1 == closed.entry(1)
    assert fp.all_injective          # paired coinvariants map injective, N <= 16
    assert fp.all_exact              # four-term sequence exact in the middle
    levels = [level for level, _ in fp.fragments]
    assert levels == list(range(2, 17))
    _report(9, "free-product H0, H1 equal the closed-form values and the "
               "paired-coinvariants sequence is exact at every level N <= 16")


def test_criterion_10_doubled_system():
    system = DoubledSystem(GOLDEN)
    table, prov = homology_table(system, max_level=10)
    assert table.entry(0) == FGAbGroup(2)
    assert table.entry(1) == FGAbGroup(1)
    for n in (2, 3, 4, 5, 8):
        assert table.entry(n) == ZERO
    assert prov["case"] == "translation_not_minimal"
    _report(10, "doubled system: H0 = Z^2, H1 = Z, everything above vanishes")
