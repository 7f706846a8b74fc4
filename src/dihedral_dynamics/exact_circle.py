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

Each :class:`Theta` builds each of its cut points once: ``CutPoint.of``
returns the one cut of index n that the theta's table holds, built on
first use.  A cut is given by the floor of n*theta * 2^64: it holds
m = -floor(n*theta) and the integer key floor((m + n*theta) * 2^64),
which also proves the cut canonical (the key lies in [0, 2^64) exactly
when m + n*theta lies in [0, 1)).  Each theta takes one exact wide
floor S = floor(theta * 2^128); then n*theta * 2^128 lies strictly
between n*S and n*S + n, and when no multiple of 2^64 lies between them
the floor of n*theta * 2^64 is n*S >> 64, one multiplication and a
shift.  Every other index (n = 0, |n| above 2^64, and the rare n whose
product lies within |n| of a key boundary) takes its own exact floor,
so every key is the exact one.  Cuts are ordered by key, and two cuts
with equal keys by the exact sign of their difference, so the order
stays exact while almost every comparison is one of integers.
``sort_by_cut`` sorts by key in C and re-sorts only the runs of equal
keys exactly.

Every question about clopen sets that depends on the gaps between cuts
(the normal form of an arc list, the Boolean operations, whether a
family partitions the circle) is answered by one sweep, ``_sweep``: the
distinct arc ends are sorted once in the exact order of
:class:`CutPoint`, and each gap's covering depth is a running sum of
+1 at left ends and -1 at right ends, one ``accumulate`` per family.
A set of n arcs therefore costs one sort of at most 2n integer keys,
not one exact comparison per arc and cut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, groupby, islice, repeat
from math import gcd, isqrt
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "json_int",
    "Theta",
    "QuadExt",
    "CutPoint",
    "Arc",
    "ClopenSet",
    "qe_cmp",
    "frac",
    "sort_by_cut",
    "sweep_partition",
]

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

    Each theta keeps the table of its cut points and its wide floor
    floor(theta * 2^(2b)) for b key bits, both filled by
    :meth:`CutPoint.of`; neither takes part in equality.
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
        object.__setattr__(self, "_cuts", {})
        object.__setattr__(self, "_wide", {})

    def sign_of(self, a: Fraction, b: Fraction) -> int:
        """Exact sign of a + b*theta."""
        # Clear denominators, then multiply by r > 0:
        #   a + b*(p + q*sqrt(d))/r  ~  a*r + b*p + b*q*sqrt(d).
        an = a.numerator * b.denominator
        bn = b.numerator * a.denominator
        return _int_sign(an * self.r + bn * self.p, bn * self.q, self.d)

    def floor_scaled(self, a: int, b: int, den: int) -> int:
        """floor((a + b*theta) / den) for integers a, b and den > 0."""
        # (a + b*theta) / den = (a*r + b*p + s) / (den*r) with s = b*q*sqrt(d),
        # and the integer root puts floor(s) in num, so k is the floor: the
        # fix-up loops below confirm it by exact signs
        root = isqrt(b * b * self.q * self.q * self.d)
        num = a * self.r + b * self.p + (root if b * self.q >= 0 else -root - 1)
        k = num // (den * self.r)
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
    den = x.a.denominator * x.b.denominator // gcd(x.a.denominator, x.b.denominator)
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


#: Bits of a cut's order key floor((m + n*theta) * 2^_KEY_BITS).
_KEY_BITS = 64


@dataclass(frozen=True)
class CutPoint:
    """The cut point of value m + n*theta, reduced into [0, 1).

    For each integer n there is exactly one integer m putting the value
    in [0, 1), so cut points are canonically indexed by n alone, and
    :meth:`of` returns the one cut of index n that its theta holds.
    ``key`` is floor((m + n*theta) * 2^64): cuts with different keys are
    ordered by key, and only cuts with equal keys by exact signs.  Both
    come from the floor of n*theta * 2^64, read off the theta's one wide
    floor where that settles it and taken exactly otherwise.
    """

    n: int
    m: int
    theta: Theta
    key: int = field(init=False, repr=False, compare=False)

    @classmethod
    def of(cls, theta: Theta, n: int) -> "CutPoint":
        """The cut of index n from the table of ``theta``, built on first use."""
        cut = theta._cuts.get(n)
        if cut is None:
            bits = _KEY_BITS
            # v = n*S with S = floor(theta * 2^(2b)) puts n*theta * 2^(2b)
            # strictly inside (v, v + n) for n > 0, (v + n, v) for n < 0; when
            # no multiple of 2^b lies inside, floor(n*theta * 2^b) = v >> b
            wide = theta._wide.get(bits)
            if wide is None:
                wide = theta._wide[bits] = theta.floor_scaled(0, 1 << 2 * bits, 1)
            v = n * wide
            low = v & ((1 << bits) - 1)
            if 0 < n <= (1 << bits) - low or 0 < -n <= low:
                scaled = v >> bits
            else:
                scaled = theta.floor_scaled(0, n << bits, 1)
            # floor(n*theta * 2^b) = floor(n*theta) * 2^b + key, and the
            # canonical m is -floor(n*theta)
            cut = object.__new__(cls)
            cut.__dict__.update(n=n, m=-(scaled >> bits), theta=theta,
                                key=scaled & ((1 << bits) - 1))
            theta._cuts[n] = cut
        return cut

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", _table_cut(self.theta, self.n, self.m).key)

    @property
    def value(self) -> QuadExt:
        return QuadExt(Fraction(self.m), Fraction(self.n), self.theta)

    def above_half(self) -> bool:
        """Whether the value exceeds 1/2: no cut value equals 1/2, so
        this holds exactly when the key is at least 2^(_KEY_BITS - 1)."""
        return self.key >> (_KEY_BITS - 1) == 1

    def _cmp(self, other: "CutPoint") -> int:
        if self.theta is not other.theta and self.theta != other.theta:
            raise ValueError("cut points over different theta values")
        if self.key != other.key:
            return -1 if self.key < other.key else 1
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

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}

    @classmethod
    def from_json(cls, theta: Theta, data: dict) -> "CutPoint":
        return _table_cut(theta, json_int(data["n"], "cut field 'n'"),
                          json_int(data["m"], "cut field 'm'"))


def _table_cut(theta: Theta, n: int, m: int) -> CutPoint:
    """The table's cut of index n, which must have the given m."""
    cut = CutPoint.of(theta, n)
    if cut.m != m:
        raise ValueError(f"non-canonical cut point (m={m}, n={n})")
    return cut


def sort_by_cut(items: Iterable, cut: str = "") -> list:
    """``items`` in the exact order of their cuts: the items themselves,
    or the cut at attribute ``cut`` of each item (``"left"`` for arcs).

    One sort by integer key runs in C; only a run of equal keys, whose
    cuts lie within 2^-64 of each other, is sorted again by exact
    comparison.  Items with equal cuts keep their order, and fewer than
    two items are returned as they come.
    """
    out = list(items)
    if len(out) < 2:
        return out
    by_key = attrgetter(f"{cut}.key" if cut else "key")
    out.sort(key=by_key)
    keys = list(map(by_key, out))
    if len(set(keys)) < len(keys):
        cut_of = attrgetter(cut) if cut else (lambda x: x)
        exact = cmp_to_key(lambda x, y: cut_of(x)._cmp(cut_of(y)))
        i = 0
        for _, run in groupby(keys):
            j = i + sum(1 for _ in run)
            if j - i > 1:
                out[i:j] = sorted(out[i:j], key=exact)
            i = j
    return out


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
        if self.left.theta is not self.right.theta and self.left.theta != self.right.theta:
            raise ValueError("arc endpoints over different theta values")
        if self.left.n == self.right.n:
            raise ValueError("arc must be nonempty and proper (left != right)")

    def length(self) -> QuadExt:
        """The cut of index right.n - left.n: its value, in (0, 1), is
        right - left modulo 1."""
        return CutPoint.of(self.left.theta, self.right.n - self.left.n).value

    def contains_value(self, x: QuadExt) -> bool:
        """Membership for points given by their circle coordinate.

        For a cut point's coordinate this is membership of its right
        copy t+; interior points never coincide with an endpoint.
        """
        l, r = self.left.value, self.right.value
        if qe_cmp(l, r) < 0:
            return qe_cmp(l, x) <= 0 and qe_cmp(x, r) < 0
        return qe_cmp(l, x) <= 0 or qe_cmp(x, r) < 0

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
        bounds, bits = [], []
        for c, (depth,) in _sweep((arcs,), (0,)):
            bounds.append(c)
            bits.append(depth > 0)
        return _rebuild(theta, bounds, bits) if bounds else cls.empty(theta)

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

    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    # -- Boolean algebra ---------------------------------------------

    def _combine(self, other: "ClopenSet", fn: Callable[[bool, bool], bool]) -> "ClopenSet":
        if self.theta != other.theta:
            raise ValueError("sets over different theta values")
        bounds, bits = [], []
        for c, (a, b) in _sweep((self.arcs, other.arcs), (self.full, other.full)):
            bounds.append(c)
            bits.append(fn(a > 0, b > 0))
        if not bounds:
            inside = fn(self.full, other.full)
            return ClopenSet.full_circle(self.theta) if inside else ClopenSet.empty(self.theta)
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
        """The set written by :meth:`to_json`: ``{"arcs": [...]}``, or
        ``{"full": true}`` with no arcs for the whole circle."""
        if "full" in data:
            if data["full"] is not True or "arcs" in data:
                raise ValueError('the full circle is written {"full": true}, with no arcs')
            return cls.full_circle(theta)
        return cls.from_arcs(theta, (Arc.from_json(theta, a) for a in data["arcs"]))


def _sweep(families: Sequence[Iterable[Arc]], start: Sequence[int]) -> Iterator[tuple]:
    """``(cut, depths)`` for every distinct end of the arcs in ``families``,
    in the exact order of :class:`CutPoint`.

    ``depths[k]`` is the covering depth of family k on the gap from this
    cut to the next (cyclically): ``start[k]`` plus the arcs of the
    family that cover it.  Every arc adds 1 at its left cut and takes it
    away at its right cut; an arc that wraps past 0 also covers the gap
    before the first cut, where the sweep starts.  The cuts are sorted
    once by :func:`sort_by_cut`, and one more key comparison per arc
    tells whether it wraps (exact only for ends that share a key), so n
    arcs cost one sort of at most 2n integer keys.
    Each family's depths are one running sum over the sorted cuts.
    """
    cuts, deltas, depth = {}, [], list(start)
    for k, arcs in enumerate(families):
        delta = {}
        for a in arcs:
            left, right = a.left, a.right
            cuts[left.n] = left
            cuts[right.n] = right
            delta[left.n] = delta.get(left.n, 0) + 1
            delta[right.n] = delta.get(right.n, 0) - 1
            # keys decide unless equal; then the exact order does
            depth[k] += right.key < left.key or right.key == left.key and right < left
        deltas.append(delta)
    order = sort_by_cut(cuts.values())
    ns = [c.n for c in order]
    # each family's depths as one running sum in C, less the start value
    columns = [islice(accumulate(map(delta.get, ns, repeat(0)), initial=d), 1, None)
               for delta, d in zip(deltas, depth)]
    return zip(order, zip(*columns))


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
    """``(disjoint, covers)`` of a family of clopen sets, by one sweep.

    The arcs of all members form one family whose depth starts at the
    number of full members, so each gap's depth is the number of members
    that contain it: the sets are pairwise disjoint iff no gap has depth
    above 1, and they cover the circle iff no gap has depth 0.
    """
    theta = None
    full = 0
    arcs = []
    for s in sets:
        if theta is None:
            theta = s.theta
        elif s.theta != theta:
            raise ValueError("sets over different theta values")
        full += s.full
        arcs.extend(s.arcs)
    depths = {d for _, (d,) in _sweep((arcs,), (full,))} or {full}
    return max(depths) <= 1, min(depths) >= 1
