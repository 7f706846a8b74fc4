"""The infinite dihedral group and its Folner sets.

The group is Z x| Z_2 with product (n,s)(m,t) = (n + (-1)^s m, s+t mod 2),
generated by the translation (1,0) and the flip (0,1).  The Folner sets
used here have a double role: F_m is simultaneously an approximately
invariant set (its translate boundary shrinks like 1/m) and a complete
set of coset representatives for the index-m subgroup m*Z x| Z_2.  An
odometer's certificate castle is one first-return tower over a level
cylinder, with such a transversal as shape, and a circle's towers reach
the invariance target (:func:`_invariance_target`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_circle import json_int

__all__ = [
    "GroupElement",
    "IDENTITY",
    "FLIP",
    "TRANSLATION",
    "FolnerSet",
    "folner",
    "is_transversal",
    "folner_ratio",
    "DEFAULT_TEST_SET",
]


@dataclass(frozen=True)
class GroupElement:
    """The element (n, s) of Z x| Z_2; s = 1 conjugates Z by -1."""

    n: int
    s: int

    def __post_init__(self) -> None:
        if self.s not in (0, 1):
            raise ValueError("flip bit must be 0 or 1")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        sign = -1 if self.s else 1
        return GroupElement(self.n + sign * other.n, self.s ^ other.s)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.n if self.s else -self.n, self.s)

    def is_identity(self) -> bool:
        return self.n == 0 and self.s == 0

    def to_json(self) -> list:
        return [self.n, self.s]

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "GroupElement":
        if not isinstance(data, list) or len(data) != 2:
            raise ValueError("group element must be a pair [n, s]")
        return cls(json_int(data[0], "group element n"), json_int(data[1], "group element s"))

    def __str__(self) -> str:
        return f"({self.n},{self.s})"


IDENTITY = GroupElement(0, 0)
FLIP = GroupElement(0, 1)
TRANSLATION = GroupElement(1, 0)

#: The generating set {e, (1,0), (0,1)} used in invariance certificates.
DEFAULT_TEST_SET = (IDENTITY, TRANSLATION, FLIP)


@dataclass(frozen=True)
class FolnerSet:
    """The m-element window: flips on [-k, -1], translations on [0, m-k).

    For even m the split is k = m/2 on both sides; for odd m the
    translation side gets the extra element.  Elements are materialized
    lazily; the integer ranges are the primary representation.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @property
    def flip_range(self) -> range:
        # [-m/2, -1] for even m, [-(m-1)/2, -1] for odd m.
        return range(-(self.m // 2), 0)

    @property
    def translation_range(self) -> range:
        # [0, m/2) for even m, [0, (m-1)/2] for odd m.
        return range(0, self.m - self.m // 2)

    @property
    def elements(self) -> tuple:
        flips = tuple(GroupElement(n, 1) for n in self.flip_range)
        slides = tuple(GroupElement(n, 0) for n in self.translation_range)
        return flips + slides

    def __len__(self) -> int:
        return self.m

    def __iter__(self):
        return iter(self.elements)

    def to_json(self) -> list:
        return [g.to_json() for g in self.elements]


def folner(m: int) -> FolnerSet:
    """The m-th window set; |F_m| = m with pairwise distinct elements."""
    return FolnerSet(m)


def is_transversal(elements, m: int) -> bool:
    """True iff the translation parts hit every class mod m exactly once.

    The coset of (k, s) in (Z x| Z_2) / (m Z x| Z_2) is determined by
    k mod m alone, since the subgroup contains the flip.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    seen = bytearray(m)
    if isinstance(elements, FolnerSet):
        for lo, hi in _residue_spans(elements, m):
            if any(seen[lo:hi]):
                return False
            seen[lo:hi] = b"\x01" * (hi - lo)
        return all(seen)
    count = 0
    for g in elements:
        r = g.n % m
        if seen[r]:
            return False
        seen[r] = 1
        count += 1
    return count == m


def _residue_spans(f: FolnerSet, m: int):
    """Residue intervals mod m of the two index ranges, split at wrap."""
    for rng in (f.flip_range, f.translation_range):
        span = len(rng)
        if span == 0:
            continue
        if span > m:
            # More elements than classes: forced collision.
            yield (0, m)
            yield (0, m)
            return
        start = rng.start % m
        end = start + span
        if end <= m:
            yield (start, end)
        else:
            yield (start, m)
            yield (0, end - m)


def folner_ratio(elements: Iterable[GroupElement], test_set: Iterable[GroupElement]) -> Fraction:
    """Exact |K F (symmetric difference) F| / |F|.

    F is held as maximal runs of consecutive translation parts, one run
    list per flip bit; a :class:`FolnerSet` is its two ranges, any other
    F is grouped and sorted.  An element (k, 0) shifts a run by k, and
    (k, 1) reflects it to k minus the run on the other bit, so K F is a
    union of |K| times as many runs, and |K F (sym diff) F| =
    |K F| + |F| - 2 |K F & F| comes from merging sorted runs, at a cost
    set by the number of runs rather than by |F|.
    """
    runs = _runs_by_bit(elements)
    size = sum(hi - lo for bit in runs for lo, hi in bit)
    if not size:
        raise ValueError("F must be nonempty")
    images = ([], [])
    for k in test_set:
        for s in (0, 1):
            for lo, hi in runs[s]:
                if k.s:
                    images[1 - s].append((k.n - hi + 1, k.n - lo + 1))
                else:
                    images[s].append((lo + k.n, hi + k.n))
    kf = meet = 0
    for s in (0, 1):
        merged = _merge_runs(images[s])
        kf += sum(hi - lo for lo, hi in merged)
        meet += _overlap(merged, runs[s])
    return Fraction(kf + size - 2 * meet, size)


def _runs_by_bit(elements) -> tuple:
    """Maximal half-open runs [lo, hi) of translation parts, per flip bit."""
    if isinstance(elements, FolnerSet):
        return tuple([(r.start, r.stop)] if r else []
                     for r in (elements.translation_range, elements.flip_range))
    parts = ([], [])
    for g in elements:
        parts[g.s].append(g.n)
    return tuple(_merge_runs([(n, n + 1) for n in ns]) for ns in parts)


def _merge_runs(runs: list) -> list:
    """The union of half-open integer runs, as sorted disjoint maximal runs."""
    out = []
    for lo, hi in sorted(runs):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _overlap(a: list, b: list) -> int:
    """Number of integers in both of two sorted disjoint run lists."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


#: The largest invariance target; a certificate's towers are at least this high.
_TARGET_CAP = 10_000


def _invariance_target(test_set: Sequence[GroupElement], eps: Fraction) -> int:
    """The least n whose windows F_n, ..., F_4n all have ratio below eps.

    Call a window F_j failing when its ratio N(j)/j is at least eps,
    where N(j) = |K F_j (sym diff) F_j|.  Windows up to j0 + 1, with
    j0 = 4s + 4 and s = max |k.n| over K, are scanned upward: n is one
    past the last failing window seen so far, and the scan stops once
    it has covered F_4n.  Any smaller n has a failing window in its own
    range, or the scan would have stopped there.

    Past j0, N(j) depends only on the parity of j.  F_j is the run
    [0, a) on bit 0 and [-b, 0) on bit 1, a = j - j//2 and b = j//2.
    An element (k, 0) shifts each run by k; (k, 1) carries [0, a) to
    [k + 1 - a, k + 1) on bit 1 and [-b, 0) to [k + 1, k + 1 + b) on bit 0.
    So on bit 0 the image runs start at k or k + 1, within 2s + 1 of
    each other, and end at k + a or k + 1 + b; on bit 1 they end at k
    or k + 1 and start at k - b or k + 1 - a.  Once b >= 2s + 2, that
    is j >= j0, every run is longer than the spread of the starts, so
    each bit's images merge into one run whose ends lie at offsets from
    0, a and -b fixed by K and by a - b = j mod 2.  Then |K F_j|, |F_j|
    and |K F_j & F_j| are each j plus a constant fixed by the parity,
    and N(j) = |K F_j| + |F_j| - 2 |K F_j & F_j| is N(j0) or N(j0 + 1).

    So once the scan passes F_{j0 + 1}, the failing j > j0 + 1 are
    exactly those with j <= N(j0 + p)/eps and the parity of j0 + p, for
    p = 0, 1, and both numerators are already scanned.  No n with
    4n <= j0 + 1 works, or the scan would have stopped there.  Any
    other n has [n, 4n] reaching past j0 + 1, so it must lie above
    every scanned failing window, and above the largest failing j of
    either parity too: else [n, 4n] holds a failing j of that parity
    (the least one past j0 + 1 if n <= j0 + 1, else n or n + 1).  So n
    is one past the last failing window, scanned or in closed form.
    With the default K (s = 1) that takes at most 9 ratios at any eps.

    An n above 10^4 is refused: the certificate's towers are at least
    n high, so n bounds its cost.
    """
    j0 = 4 * max(abs(k.n) for k in test_set) + 4
    n, j, numerators = 1, 0, []
    while j < 4 * n and n <= _TARGET_CAP:
        j += 1
        if j > j0 + 1:
            for p, numerator in enumerate(numerators):
                # the largest j with N/j >= eps and the parity of j0 + p
                top = numerator * eps.denominator // eps.numerator
                top -= (top - j0 - p) % 2
                if top > j0 + 1:
                    n = max(n, top + 1)
            break
        ratio = folner_ratio(folner(j), test_set)
        if j >= j0:
            numerators.append((ratio * j).numerator)
        if ratio >= eps:
            n = j + 1
    if n > _TARGET_CAP:
        raise ValueError("no invariant window size found below 10^4")
    return n
