"""Answer checks computed apart from the program.

Every check here re-derives the expected answer with the standard
library only: it shares no code with ``dihedral_dynamics`` and never
compares against a stored copy of earlier output.  Each check returns a
list of problems; an empty list means the answer passed.

* Circle homology: ``H0 = Z^2``, odd degrees ``(Z/2)^c`` with ``c`` the
  number of reflection fixed points derived below, positive even
  degrees ``0``; the doubled system gives ``Z^2, Z, 0, ...``.
* Odometer homology: ``H0 = Z[1/b]`` localized at the primes of ``b``,
  odd degrees ``(Z/2)^c`` with ``c`` counted from the solutions of
  ``x = -x`` and ``x = 1 - x`` in the b-adic integers.
* Castles: seeded rational points each lie in exactly one tower
  translate (decided by an integer ``isqrt`` sign test), the heights
  obey the three-gap theorem, ``sum J*|base| = 1`` exactly, and every
  shape ratio re-enumerates below eps.
* Bar oracle: no mismatches, the expected number of checks, and the
  homology of drawn modules in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt

# The test set {e, (1,0), (0,1)} that certify uses when --K is not given.
DEFAULT_TEST_SET = [[0, 0], [1, 0], [0, 1]]


# ---------------------------------------------------------------------------
# Exact arithmetic in Q + Z*theta, theta = (p + q*sqrt(d)) / r
# ---------------------------------------------------------------------------


def sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and a non-square d.

    ``isqrt(b*b*d)`` is the floor of |b|*sqrt(d), which is never an
    integer for b != 0, so the value lies strictly inside a unit
    interval with integer ends and the sign of one end decides.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    s = isqrt(b * b * d)
    if b > 0:
        return 1 if a + s >= 0 else -1
    return 1 if a - s - 1 >= 0 else -1


class Circle:
    """The rotation number theta of a system description, exactly."""

    def __init__(self, theta: dict):
        self.p, self.q, self.d, self.r = (int(theta[k]) for k in ("p", "q", "d", "r"))
        if self.r <= 0 or self.q == 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"not a quadratic irrational: {theta}")
        self.approx = (self.p + self.q * self.d ** 0.5) / self.r

    def sign(self, num: int, den: int, b: int) -> int:
        """Sign of num/den + b*theta, for den > 0."""
        return sign_surd(num * self.r + b * self.p * den, b * self.q * den, self.d)

    def floor(self, num: int, den: int, b: int) -> int:
        k = floor(num / den + b * self.approx)
        while self.sign(num - k * den, den, b) < 0:
            k -= 1
        while self.sign(num - (k + 1) * den, den, b) >= 0:
            k += 1
        return k

    def reduce(self, num: int, den: int, b: int) -> tuple:
        """The point num/den + b*theta moved into [0, 1)."""
        return num - self.floor(num, den, b) * den, den, b

    def cut_in_unit(self, m: int, n: int) -> bool:
        return self.sign(m, 1, n) >= 0 and self.sign(m - 1, 1, n) < 0

    def in_arcs(self, point: tuple, arcs: list) -> bool:
        """Membership of a reduced non-cut point in a union of [L, R) arcs."""
        num, den, b = point
        for arc in arcs:
            lm, ln = arc["left"]["m"], arc["left"]["n"]
            rm, rn = arc["right"]["m"], arc["right"]["n"]
            after_left = self.sign(num - lm * den, den, b - ln) >= 0
            before_right = self.sign(num - rm * den, den, b - rn) < 0
            if self.sign(lm - rm, 1, ln - rn) < 0:
                inside = after_left and before_right
            else:
                inside = after_left or before_right
            if inside:
                return True
        return False

    def arc_length(self, arc: dict) -> tuple:
        """(rational part, theta coefficient) of the arc length."""
        lm, ln = arc["left"]["m"], arc["left"]["n"]
        rm, rn = arc["right"]["m"], arc["right"]["n"]
        a, b = rm - lm, rn - ln
        if self.sign(a, 1, b) < 0:
            a += 1
        return a, b


# ---------------------------------------------------------------------------
# Homology tables
# ---------------------------------------------------------------------------


def group(rank: int, twos: int = 0) -> dict:
    """The JSON form of Z^rank + (Z/2)^twos."""
    return {"rank": rank, "torsion": [2] * twos}


def reflection_fixed_points(n: int) -> list:
    """Fixed points of x -> -x + n*theta on the cut circle, as (a, b).

    2x = n*theta + k for an integer k, so x = k/2 + (n/2)*theta with
    k in {0, 1} up to the circle.  A solution in Z + Z*theta is a cut
    point, whose two copies the flip exchanges, so it fixes nothing.
    """
    out = []
    for k in (0, 1):
        a, b = Fraction(k, 2), Fraction(n, 2)
        if a.denominator == 1 and b.denominator == 1:
            continue
        out.append((a, b))
    return out


def _table_problems(payload: dict, expected: dict) -> list:
    problems = []
    for key, want in expected.items():
        got = payload.get(key)
        if got != want:
            problems.append(f"{key}: got {got}, expected {want}")
    return problems


def _freeproduct_problems(prov: dict) -> list:
    problems = []
    if prov.get("delta") != {}:
        problems.append(f"closed form and free product disagree: {prov.get('delta')}")
    fp = prov.get("freeproduct", {})
    for flag in ("pairedInjective", "middleExact"):
        if fp.get(flag) is not True:
            problems.append(f"freeproduct.{flag} is {fp.get(flag)}")
    return problems


def circle_homology_problems(payload: dict) -> list:
    """A cut circle with the flip, computed with ``--method both``."""
    sigma = len(reflection_fixed_points(0))
    phi_sigma = len(reflection_fixed_points(1))
    odd, even = group(0, sigma + phi_sigma), group(0)
    expected = {"H0": group(2), "H1": odd, "H2": even, "H3": odd, "H4": even, "H5": odd,
                "tail": {"odd": odd, "even": even, "from": 1}}
    prov = payload.get("provenance", {})
    problems = _table_problems(payload, expected)
    if prov.get("fixedPoints") != {"sigma": sigma, "phiSigma": phi_sigma}:
        problems.append(f"fixed points {prov.get('fixedPoints')}, expected "
                        f"sigma={sigma} phiSigma={phi_sigma}")
    return problems + _freeproduct_problems(prov)


def doubled_homology_problems(payload: dict) -> list:
    """Two flip-exchanged circle copies: the homology of the Z-action."""
    zero = group(0)
    expected = {"H0": group(2), "H1": group(1), "H2": zero, "H3": zero, "H4": zero,
                "H5": zero, "tail": {"odd": zero, "even": zero, "from": 2}}
    problems = _table_problems(payload, expected)
    case = payload.get("provenance", {}).get("case")
    if case != "translation_not_minimal":
        problems.append(f"case {case}, expected translation_not_minimal")
    return problems


def prime_factors(n: int) -> list:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def adic_solution_count(b: int, rhs: int, depth: int = 3) -> int:
    """Solutions of 2x = rhs in the b-adic integers, counted by lifting.

    A b-adic solution reduces to a solution mod b^depth that lifts to
    one mod b^(depth+1); the count of those residues is stable from
    depth 1 on, because 2x = rhs has at most one solution in the
    torsion-free b-adic integers.
    """
    top, low = b ** (depth + 1), b ** depth
    return len({x % low for x in range(top) if (2 * x - rhs) % top == 0})


def odometer_homology_problems(payload: dict, base: int) -> list:
    """The b^i odometer, computed with ``--method both``."""
    primes = prime_factors(base)
    rad = 1
    for p in primes:
        rad *= p
    count = adic_solution_count(base, 0) + adic_solution_count(base, 1)
    odd, even = group(0, count), group(0)
    expected = {"H1": odd, "H2": even, "H3": odd, "H4": even, "H5": odd,
                "tail": {"odd": odd, "even": even, "from": 1}}
    problems = _table_problems(payload, expected)
    h0 = payload.get("H0", {})
    if h0.get("localization") != f"Z[1/{rad}]" or h0.get("primes") != primes:
        problems.append(f"H0 {h0}, expected Z[1/{rad}] at primes {primes}")
    mults = h0.get("multipliers", [])
    if len(mults) < 2 or any(m != base for m in mults):
        problems.append(f"H0 multipliers {mults}, expected each level to multiply by {base}")
    return problems + _freeproduct_problems(payload.get("provenance", {}))


# ---------------------------------------------------------------------------
# Castles
# ---------------------------------------------------------------------------


def _mul(g: tuple, h: tuple) -> tuple:
    """(n,s)(m,t) = (n + (-1)^s m, s + t mod 2) in Z x| Z_2."""
    return (g[0] - h[0] if g[1] else g[0] + h[0], g[1] ^ h[1])


def shape_ratio(shape: list, test_set: list) -> Fraction:
    """|K F (symmetric difference) F| / |F|, enumerated."""
    f = {tuple(g) for g in shape}
    kf = {_mul(tuple(k), g) for k in test_set for g in f}
    return Fraction(len(kf ^ f), len(f))


def three_gap_problems(heights: list) -> list:
    """Return times of an irrational rotation to an interval take at most
    three values, and when three, the largest is the sum of the others."""
    hs = sorted(set(heights))
    if len(hs) > 3 or (len(hs) == 3 and hs[2] != hs[0] + hs[1]):
        return [f"heights {hs} break the three-gap theorem"]
    return []


def _components(system: dict, base: dict) -> list:
    """Arc lists of a tower base, one per circle copy."""
    if system["type"] == "doubled":
        return [c.get("arcs", []) for c in base["components"]]
    return [base.get("arcs", [])]


def _preimage(system: dict, circle: Circle, g: tuple, point: tuple) -> tuple:
    """g^-1 applied to a sample point (copy, u, den), reduced.

    The flip system acts by x -> (-1)^s x + n*theta.  The doubled
    system sends (c, x) to (c xor s, x + (-1)^(c xor s) n*theta).
    """
    (n, s), (c, u, den) = g, point
    if system["type"] == "doubled":
        c2 = c ^ s
        sign = -1 if (c if s == 0 else c2) else 1
        b = -sign * n if s == 0 else sign * n
        return c2, circle.reduce(u, den, b)
    if s:
        return 0, circle.reduce(-u, den, n)
    return 0, circle.reduce(u, den, -n)


def castle_problems(cert: dict, system: dict, eps: Fraction, points: list) -> list:
    """Check a certify payload from its JSON alone."""
    problems = []
    if cert.get("system") != system:
        problems.append(f"system {cert.get('system')}, expected {system}")
        return problems
    circle = Circle(system["theta"])
    towers = cert.get("towers") or []
    if not towers:
        return problems + ["castle has no towers"]
    if Fraction(cert.get("epsilon", "0")) != eps:
        problems.append(f"epsilon {cert.get('epsilon')}, expected {eps}")
    test_set = cert.get("testSet")
    if test_set != DEFAULT_TEST_SET:
        problems.append(f"test set {test_set}, expected {DEFAULT_TEST_SET}")
        test_set = DEFAULT_TEST_SET
    if cert.get("verified") != {"covers": True, "disjoint": True, "sigmaCompatible": True}:
        problems.append(f"program reports {cert.get('verified')}")

    stated = cert.get("shapeRatios", [])
    if len(stated) != len(towers):
        problems.append(f"{len(stated)} shape ratios for {len(towers)} towers")
    mass_a, mass_b = Fraction(0), Fraction(0)
    scale = Fraction(1, len(_components(system, towers[0]["base"])))
    for i, t in enumerate(towers):
        shape = [tuple(g) for g in t["shape"]]
        if len(shape) != t["J"] or len(set(shape)) != len(shape):
            problems.append(f"tower {i}: shape of {len(set(shape))} elements for J={t['J']}")
        ratio = shape_ratio(shape, test_set)
        if i < len(stated) and Fraction(stated[i]) != ratio:
            problems.append(f"tower {i}: stated ratio {stated[i]}, enumerated {ratio}")
        if ratio >= eps:
            problems.append(f"tower {i}: ratio {ratio} is not below {eps}")
        for arcs in _components(system, t["base"]):
            for arc in arcs:
                for end in ("left", "right"):
                    if not circle.cut_in_unit(arc[end]["m"], arc[end]["n"]):
                        problems.append(f"tower {i}: endpoint {arc[end]} is not reduced")
                        return problems
                a, b = circle.arc_length(arc)
                mass_a += t["J"] * scale * a
                mass_b += t["J"] * scale * b
    if (mass_a, mass_b) != (1, 0):
        problems.append(f"sum J*|base| = {mass_a} + {mass_b}*theta, expected 1")
    problems += three_gap_problems([t["J"] for t in towers])

    translates = [(tuple(g), _components(system, t["base"])) for t in towers for g in t["shape"]]
    for point in points:
        hits = 0
        for g, comps in translates:
            c, y = _preimage(system, circle, g, point)
            if circle.in_arcs(y, comps[c]):
                hits += 1
        if hits != 1:
            problems.append(f"sample point {point} lies in {hits} tower translates")
            break
    return problems


# ---------------------------------------------------------------------------
# Bar-complex oracle
# ---------------------------------------------------------------------------


def oracle_problems(payload: dict, seed: int, count: int, max_degree: int) -> list:
    problems = []
    if payload.get("mismatches") != []:
        problems.append(f"oracle mismatches: {payload.get('mismatches')}")
    if payload.get("checked") != count * (max_degree + 1):
        problems.append(f"checked {payload.get('checked')}, expected {count * (max_degree + 1)}")
    if payload.get("cases") != count or payload.get("seed") != seed:
        problems.append(f"cases/seed {payload.get('cases')}/{payload.get('seed')}, "
                        f"expected {count}/{seed}")
    return problems


def bar_expected(kind: str, first: int, second: int, degree: int) -> dict:
    """Homology of Z/2 with coefficients in a drawn module.

    A permutation module with ``first`` fixed cells and ``second``
    swapped pairs is Z^f + Z[Z/2]^p: H0 = Z^(f+p), odd (Z/2)^f, even 0.
    A signed diagonal module with ``first`` entries +1 and ``second``
    entries -1 is Z^a + (Z^-)^b: H0 = Z^a + (Z/2)^b, odd (Z/2)^a,
    even (Z/2)^b.
    """
    if kind == "perm":
        if degree == 0:
            return group(first + second)
        return group(0, first) if degree % 2 else group(0)
    if degree == 0:
        return group(first, second)
    return group(0, first) if degree % 2 else group(0, second)
