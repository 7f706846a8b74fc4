"""Exact arithmetic for arcs on a circle cut along the lattice Z + theta*Z.

``theta`` is a real quadratic irrational (p + q*sqrt(d))/r in (0, 1), so
every quantity handled here has the form a + b*theta with rational a, b
and equality/order are decided by integer sign analysis alone; nothing
is ever rounded.

Cutting the circle R/Z at every point of Z + theta*Z (each cut point t
split into a left copy t- and a right copy t+) turns the circle into a
Cantor set.  Its clopen subsets are exactly the finite unions of
half-open arcs [s+, t+) with cut-point endpoints, and :class:`ClopenSet`
realises that Boolean algebra in a unique normal form.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Callable, Iterable, Sequence

__all__ = [
    "json_int",
    "Theta",
    "QuadExt",
    "CutPoint",
    "Arc",
    "ClopenSet",
    "qe_cmp",
    "frac",
    "sweep_partition",
]

# Scale used for the initial integer estimate of sqrt(d); exact sign
# corrections afterwards make the result independent of this value.
_SQRT_SCALE = 1 << 40


@lru_cache(maxsize=None)
def _scaled_sqrt(d: int) -> int:
    return isqrt(d * _SQRT_SCALE * _SQRT_SCALE)


def _int_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and non-square d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a*a with b*b*d; equality cannot occur
    # because sqrt(d) is irrational.
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        raise ArithmeticError("d must be a non-square")
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


#: Largest d accepted for theta; bounds the squarefree check below.
_MAX_D = 1 << 63


def _is_squarefree(d: int) -> bool:
    """True iff no square of a prime divides d >= 1, in O(d^(1/3)) steps.

    Trial division strips every prime f with f^3 <= d (the cofactor d
    shrinks as it goes).  Whatever is left has all its prime factors
    above the cube root of itself, so it is 1, a prime, a product of two
    primes, or the square of one prime: squarefree unless a perfect
    square greater than 1.
    """
    f = 2
    while f * f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return False
        f += 1 if f == 2 else 2
    return d == 1 or isqrt(d) ** 2 != d


def json_int(value, field: str) -> int:
    """A JSON integer as it was parsed; a float, bool or string is refused
    with a ``ValueError`` that names the field, not rounded."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class Theta:
    """The rotation number (p + q*sqrt(d)) / r, restricted to (0, 1).

    d must be squarefree and not a perfect square, and q nonzero, so the
    value is irrational and the representation is faithful.  d must also
    be below 2^63, which keeps the squarefree check under 2^21 steps.
    """

    p: int
    q: int
    d: int
    r: int

    def __post_init__(self) -> None:
        if self.r == 0:
            raise ValueError("r must be nonzero")
        if self.r < 0:
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)
            object.__setattr__(self, "r", -self.r)
        if self.q == 0:
            raise ValueError("q must be nonzero (theta must be irrational)")
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be >= 2 and not a perfect square")
        if self.d >= _MAX_D:
            raise ValueError("d must be less than 2^63")
        # the cheap sign checks first, the squarefree trial division last
        if _int_sign(self.p, self.q, self.d) <= 0:
            raise ValueError("theta must be positive")
        if _int_sign(self.p - self.r, self.q, self.d) >= 0:
            raise ValueError("theta must be less than 1")
        if not _is_squarefree(self.d):
            raise ValueError("d must be squarefree")

    def sign_of(self, a: Fraction, b: Fraction) -> int:
        """Exact sign of a + b*theta."""
        # Clear denominators, then multiply by r > 0:
        #   a + b*(p + q*sqrt(d))/r  ~  a*r + b*p + b*q*sqrt(d).
        an = a.numerator * b.denominator
        bn = b.numerator * a.denominator
        return _int_sign(an * self.r + bn * self.p, bn * self.q, self.d)

    def floor_scaled(self, a: int, b: int, den: int) -> int:
        """floor((a + b*theta) / den) for integers a, b and den > 0."""
        # Integer estimate from the scaled square root, then exact fix-up.
        num = a * self.r * _SQRT_SCALE + b * (self.p * _SQRT_SCALE + self.q * _scaled_sqrt(self.d))
        k = num // (den * self.r * _SQRT_SCALE)
        # sign of (a + b*theta)/den - kk, by integer arithmetic alone
        def sign_minus(kk: int) -> int:
            return _int_sign((a - kk * den) * self.r + b * self.p, b * self.q, self.d)

        while sign_minus(k) < 0:
            k -= 1
        while sign_minus(k + 1) >= 0:
            k += 1
        return k

    def __float__(self) -> float:
        return (self.p + self.q * self.d ** 0.5) / self.r

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "d": self.d, "r": self.r}

    @classmethod
    def from_json(cls, data: dict) -> "Theta":
        return cls(**{k: json_int(data[k], f"theta field {k!r}") for k in ("p", "q", "d", "r")})


#: The golden rotation number (sqrt(5) - 1) / 2.
GOLDEN = Theta(p=-1, q=1, d=5, r=2)


@dataclass(frozen=True)
class QuadExt:
    """An element a + b*theta of the quadratic field containing theta."""

    a: Fraction
    b: Fraction
    theta: Theta

    def __post_init__(self) -> None:
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))

    def _require_same_field(self, other: "QuadExt") -> None:
        if self.theta != other.theta:
            raise ValueError("operands live over different theta values")

    def __add__(self, other: "QuadExt") -> "QuadExt":
        self._require_same_field(other)
        return QuadExt(self.a + other.a, self.b + other.b, self.theta)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        self._require_same_field(other)
        return QuadExt(self.a - other.a, self.b - other.b, self.theta)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.theta)

    def __mul__(self, scalar) -> "QuadExt":
        s = Fraction(scalar)
        return QuadExt(self.a * s, self.b * s, self.theta)

    __rmul__ = __mul__

    def shift(self, k) -> "QuadExt":
        return QuadExt(self.a + Fraction(k), self.b, self.theta)

    def sign(self) -> int:
        return self.theta.sign_of(self.a, self.b)

    def __lt__(self, other: "QuadExt") -> bool:
        return qe_cmp(self, other) < 0

    def __le__(self, other: "QuadExt") -> bool:
        return qe_cmp(self, other) <= 0

    def __gt__(self, other: "QuadExt") -> bool:
        return qe_cmp(self, other) > 0

    def __ge__(self, other: "QuadExt") -> bool:
        return qe_cmp(self, other) >= 0

    def floor(self) -> int:
        den = self.a.denominator * self.b.denominator
        return self.theta.floor_scaled(
            self.a.numerator * self.b.denominator,
            self.b.numerator * self.a.denominator,
            den,
        )

    def frac(self) -> "QuadExt":
        return self.shift(-self.floor())

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.theta)

    def __str__(self) -> str:
        return format_point(self)

    @classmethod
    def rational(cls, value, theta: Theta) -> "QuadExt":
        return cls(Fraction(value), Fraction(0), theta)


def qe_cmp(x: QuadExt, y: QuadExt) -> int:
    """Exact order of x and y as real numbers: -1, 0 or 1."""
    x._require_same_field(y)
    return x.theta.sign_of(x.a - y.a, x.b - y.b)


def frac(x: QuadExt) -> QuadExt:
    """The representative of x modulo 1 lying in [0, 1)."""
    return x.frac()


def format_point(x: QuadExt) -> str:
    """Human-readable form of a + b*theta, e.g. ``1/2``, ``theta/2``, ``(1+theta)/2``."""
    den = x.a.denominator * x.b.denominator // _gcd(x.a.denominator, x.b.denominator)
    an = x.a.numerator * (den // x.a.denominator)
    bn = x.b.numerator * (den // x.b.denominator)
    if bn == 0:
        num = str(an)
    elif an == 0:
        num = _theta_term(bn)
    else:
        sign = "+" if bn > 0 else "-"
        num = f"({an}{sign}{_theta_term(abs(bn))})"
    return num if den == 1 else f"{num}/{den}"


def _theta_term(b: int) -> str:
    return "theta" if b == 1 else f"{b}*theta"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True)
class CutPoint:
    """The cut point of value m + n*theta, reduced into [0, 1).

    For each integer n there is exactly one integer m putting the value
    in [0, 1), so cut points are canonically indexed by n alone.
    """

    n: int
    m: int
    theta: Theta

    @classmethod
    def of(cls, theta: Theta, n: int) -> "CutPoint":
        m = -theta.floor_scaled(0, n, 1)
        return cls(n=n, m=m, theta=theta)

    def __post_init__(self) -> None:
        # canonical iff 0 <= m + n*theta < 1: two integer sign checks
        t = self.theta
        if _int_sign(self.m * t.r + self.n * t.p, self.n * t.q, t.d) < 0 or \
                _int_sign((self.m - 1) * t.r + self.n * t.p, self.n * t.q, t.d) >= 0:
            raise ValueError(f"non-canonical cut point (m={self.m}, n={self.n})")

    @property
    def value(self) -> QuadExt:
        return QuadExt(Fraction(self.m), Fraction(self.n), self.theta)

    def _cmp(self, other: "CutPoint") -> int:
        if self.theta != other.theta:
            raise ValueError("cut points over different theta values")
        if self.n == other.n:
            return 0
        return _int_sign(
            (self.m - other.m) * self.theta.r + (self.n - other.n) * self.theta.p,
            (self.n - other.n) * self.theta.q,
            self.theta.d,
        )

    def __lt__(self, other: "CutPoint") -> bool:
        return self._cmp(other) < 0

    def negate(self) -> "CutPoint":
        return CutPoint.of(self.theta, -self.n)

    def shift(self, k: int) -> "CutPoint":
        return CutPoint.of(self.theta, self.n + k)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}

    @classmethod
    def from_json(cls, theta: Theta, data: dict) -> "CutPoint":
        return cls(n=int(data["n"]), m=int(data["m"]), theta=theta)


@dataclass(frozen=True)
class Arc:
    """The half-open arc [left+, right+) of the cut circle.

    It contains left+, the two copies of every cut point strictly
    between, every non-cut point strictly between, and right-.  Arcs are
    proper: the full circle is represented at ClopenSet level.
    """

    left: CutPoint
    right: CutPoint

    def __post_init__(self) -> None:
        if self.left.theta != self.right.theta:
            raise ValueError("arc endpoints over different theta values")
        if self.left.n == self.right.n:
            raise ValueError("arc must be nonempty and proper (left != right)")

    @property
    def theta(self) -> Theta:
        return self.left.theta

    def length(self) -> QuadExt:
        diff = self.right.value - self.left.value
        return diff if diff.sign() > 0 else diff.shift(1)

    def contains_value(self, x: QuadExt) -> bool:
        """Membership for points given by their circle coordinate.

        For a cut point's coordinate this is membership of its right
        copy t+; interior points never coincide with an endpoint.
        """
        l, r = self.left.value, self.right.value
        if qe_cmp(l, r) < 0:
            return qe_cmp(l, x) <= 0 and qe_cmp(x, r) < 0
        return qe_cmp(l, x) <= 0 or qe_cmp(x, r) < 0

    def contains_cut(self, c: CutPoint) -> bool:
        """Membership of the right copy c+, by integer comparisons only."""
        if self.left < self.right:
            return not (c < self.left) and c < self.right
        return not (c < self.left) or c < self.right

    def to_json(self) -> dict:
        return {"left": self.left.to_json(), "right": self.right.to_json()}

    @classmethod
    def from_json(cls, theta: Theta, data: dict) -> "Arc":
        return cls(CutPoint.from_json(theta, data["left"]), CutPoint.from_json(theta, data["right"]))


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset of the cut circle in normal form.

    Stored as pairwise disjoint, non-adjacent arcs sorted by left
    endpoint, with a dedicated flag for the full circle; the normal form
    is unique, so structural equality is set equality.
    """

    theta: Theta
    arcs: tuple
    full: bool = False

    def __post_init__(self) -> None:
        if self.full and self.arcs:
            raise ValueError("the full circle stores no arcs")

    # -- constructors ------------------------------------------------

    @classmethod
    def empty(cls, theta: Theta) -> "ClopenSet":
        return cls(theta, ())

    @classmethod
    def full_circle(cls, theta: Theta) -> "ClopenSet":
        return cls(theta, (), full=True)

    @classmethod
    def from_arcs(cls, theta: Theta, arcs: Iterable[Arc]) -> "ClopenSet":
        """Normal form of an arbitrary (possibly overlapping) arc list."""
        arcs = tuple(arcs)
        if not arcs:
            return cls.empty(theta)
        bounds = _sorted_cuts(
            itertools.chain.from_iterable((a.left, a.right) for a in arcs))
        bits = [any(a.contains_cut(c) for a in arcs) for c in bounds]
        return _rebuild(theta, bounds, bits)

    @classmethod
    def arc(cls, theta: Theta, left_n: int, right_n: int) -> "ClopenSet":
        """The single arc with cut indices ``left_n`` and ``right_n``."""
        return cls.from_arcs(
            theta, [Arc(CutPoint.of(theta, left_n), CutPoint.of(theta, right_n))])

    # -- membership --------------------------------------------------

    def contains_value(self, x: QuadExt) -> bool:
        if self.full:
            return True
        return any(a.contains_value(x) for a in self.arcs)

    @cached_property
    def _lefts(self) -> list:
        return [a.left for a in self.arcs]

    def contains_cut(self, c: CutPoint) -> bool:
        """Membership of the right copy c+, via bisection on arc starts."""
        if self.full:
            return True
        if not self.arcs:
            return False
        idx = bisect_right(self._lefts, c) - 1
        if idx < 0:
            last = self.arcs[-1]
            # only the wrapped tail [0, right) of the last arc can reach here
            return last.right < last.left and c < last.right
        a = self.arcs[idx]
        return c < a.right if a.left < a.right else True

    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def boundary_cuts(self) -> list:
        return _sorted_cuts(
            itertools.chain.from_iterable((a.left, a.right) for a in self.arcs))

    # -- Boolean algebra ---------------------------------------------

    def _combine(self, other: "ClopenSet", fn: Callable[[bool, bool], bool]) -> "ClopenSet":
        if self.theta != other.theta:
            raise ValueError("sets over different theta values")
        bounds = _sorted_cuts(self.boundary_cuts() + other.boundary_cuts())
        if not bounds:
            inside = fn(self.full, other.full)
            return ClopenSet.full_circle(self.theta) if inside else ClopenSet.empty(self.theta)
        bits = [fn(self.contains_cut(c), other.contains_cut(c)) for c in bounds]
        return _rebuild(self.theta, bounds, bits)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return self._combine(other, lambda a, b: a or b)

    def intersection(self, other: "ClopenSet") -> "ClopenSet":
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self._combine(other, lambda a, b: a and not b)

    def symmetric_difference(self, other: "ClopenSet") -> "ClopenSet":
        return self._combine(other, lambda a, b: a != b)

    def complement(self) -> "ClopenSet":
        return self._combine(ClopenSet.empty(self.theta), lambda a, _: not a)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def measure(self) -> QuadExt:
        """Total arc length, an exact element of Q + Q*theta."""
        total = QuadExt.rational(1 if self.full else 0, self.theta)
        for a in self.arcs:
            total = total + a.length()
        return total

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        if self.full:
            return {"full": True}
        return {"arcs": [a.to_json() for a in self.arcs]}

    @classmethod
    def from_json(cls, theta: Theta, data: dict) -> "ClopenSet":
        if data.get("full"):
            return cls.full_circle(theta)
        return cls.from_arcs(theta, (Arc.from_json(theta, a) for a in data["arcs"]))


def _sorted_cuts(cuts: Iterable[CutPoint]) -> list:
    by_n = {c.n: c for c in cuts}
    out = list(by_n.values())
    out.sort()
    return out


def _rebuild(theta: Theta, bounds: Sequence[CutPoint], bits: Sequence[bool]) -> ClopenSet:
    """Assemble the normal form from region membership bits.

    ``bits[i]`` is membership on the region [bounds[i], bounds[i+1]),
    cyclically; maximal runs of inside-regions become single arcs, so no
    two output arcs are adjacent.
    """
    t = len(bounds)
    if all(bits):
        return ClopenSet.full_circle(theta)
    if not any(bits):
        return ClopenSet.empty(theta)
    arcs = []
    for i in range(t):
        if bits[i] and not bits[i - 1]:
            j = i
            while bits[(j + 1) % t]:
                j += 1
            arcs.append(Arc(bounds[i], bounds[(j + 1) % t]))
    return ClopenSet(theta, tuple(arcs))


def sweep_partition(sets: Iterable[ClopenSet]) -> tuple:
    """``(disjoint, covers)`` of a family of clopen sets, by one sorted sweep.

    Every arc adds 1 to the covering depth at its left cut and takes it
    away at its right cut; an arc that wraps past 0 also covers the gap
    before the first cut, where the sweep starts.  The distinct cuts are
    sorted once in the exact order of :class:`CutPoint`, so the depth of
    each gap between consecutive cuts is an integer prefix sum: the sets
    are pairwise disjoint iff no gap has depth above 1, and they cover
    the circle iff no gap has depth 0.  A full member covers everything
    and so meets every other nonempty member.
    """
    theta = None
    full = 0
    depth = 0
    cuts, delta = {}, {}
    for s in sets:
        if theta is None:
            theta = s.theta
        elif s.theta != theta:
            raise ValueError("sets over different theta values")
        if s.full:
            full += 1
        for a in s.arcs:
            cuts[a.left.n] = a.left
            cuts[a.right.n] = a.right
            delta[a.left.n] = delta.get(a.left.n, 0) + 1
            delta[a.right.n] = delta.get(a.right.n, 0) - 1
            depth += a.right < a.left
    if full:
        return full == 1 and not cuts, True
    lo = hi = depth
    for c in sorted(cuts.values()):
        depth += delta[c.n]
        lo, hi = min(lo, depth), max(hi, depth)
    return hi <= 1, lo >= 1
