"""Concrete Cantor minimal systems for the infinite dihedral group.

The group is Z x| Z_2 with product (n,s)(m,t) = (n + (-1)^s m, s+t mod 2),
generated by the translation (1,0) and the flip (0,1).  Three families of
systems are provided:

* :class:`DenjoyFlipSystem` -- the cut circle with rotation x -> x + theta
  and flip x -> -x (cut copies swapped, so the flip has the single fixed
  point 1/2);
* :class:`OdometerSystem` -- inverse limits of the finite quotients
  Z/n_i with (1,0) acting as +1 and (0,1) as negation, along a
  divisibility chain n_1 | n_2 | ...;
* :class:`DoubledSystem` -- two copies of a cut circle exchanged by the
  flip, with the rotation acting forwards on one copy and backwards on
  the other; the resulting action is free and its translation part is
  not minimal.

Level cells and their matrices rest on one invariant.  The cells of a
circle level are the gaps between consecutive cuts of one window
{n*theta : lo <= n <= hi}, sorted once in the exact order of
:class:`CutPoint`, and the group acts on cut indices: (k, s) sends cut n
to (-1)^s n + k, and a flip swaps the two ends of an arc.  So the image
of an arc between cuts is again such an arc, it is a union of cells
exactly when both its ends are cells' left cuts, and it then holds the
cyclic run of cells between them.  An odometer level's cells are the
cylinders of Z/n_i, named by residue, and the group acts on residues;
a cylinder of a coarser level n_j | n_i is the union of the n_i / n_j
cylinders whose residues reduce to its own.  A level's cells are a
window that carries its own index, built once by ``cells``: a circle
window keeps the position of each cut from the sort that ordered them,
and an odometer cell's position is its residue.  :func:`cover_matrix`,
:func:`pullback_matrix`, :func:`pullback_permutation` and
:func:`cover_indices` read that index, in integers, with no set
operations; any other sequence of cells is refused.

For homology the circle and the odometer differ only in which cell
lists stand for level N (``level_windows``), in how deep their levels go
(``depth``) and in how the reflections' fixed points are counted
(``reflection_fixed``).  ``level_windows(N)`` gives the cells of level N
and their relation window.  The flip (0,1) permutes a circle's window
[-N, N] and the reflected rotation (1,1) its window [1-N, N]; a
rotation by one moves the cuts of [1-N, N] into [-N, N], so the
translation relations of level N are taken on [1-N, N] and land in
[-N, N].  Both reflections and the translation permute an odometer's
level cylinders, so one list serves as both windows.  ``level_chain(N)``
gives the windows of levels 1..N at once, as a homology computation
reads them: a circle grows one cut list, placing each new cut by
bisection, and snapshots it.  Each window also has its length state
(``length_state``), the exact lengths of its cells as integer rows.

Castles, certificates and the CLI ask every system the same questions:
``act`` (the image of a clopen set), ``set_from_json`` (a clopen set
from its JSON), ``partition_flags`` (whether pieces are disjoint and
cover the space), ``fixed_point_report`` (the fixed points of an
element as ``fixed-points`` prints them) and ``to_json``.  Each answers
in its own terms:

* the cut circle writes a set as arcs between cuts, checks pieces by one
  sorted sweep over their ends, reports exact fixed points, and has the
  flip-invariant windows [1-u, u) around 1/2 (``invariant_window``);
* the doubled system writes a set as one arc set per copy, sweeps each
  copy once, reports no fixed points (its action is free), and has the
  flip-invariant windows [0, u) on both copies;
* the odometer writes a set as residues at one level, checks pieces by
  marking residues, reports stable thread counts up to its ``depth``,
  and has no flip-invariant windows: its castles are level transversals.

Homology asks the circle and the odometer for their levels as above;
for the doubled system it reads only the translation H_0 of its base
circle (the split case).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import NonStabilizationError
from .exact_circle import (Arc, ClopenSet, CutPoint, QuadExt, Theta, format_point, json_int,
                           sweep_partition)

__all__ = [
    "GroupElement",
    "IDENTITY",
    "FLIP",
    "TRANSLATION",
    "FixedPointSet",
    "ThreadCount",
    "DenjoyFlipSystem",
    "DoubledClopen",
    "DoubledSystem",
    "LevelSet",
    "OdometerSystem",
    "cover_matrix",
    "pullback_matrix",
    "pullback_permutation",
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
        if len(data) != 2:
            raise ValueError("group element must be a pair [n, s]")
        return cls(int(data[0]), int(data[1]))

    def __str__(self) -> str:
        return f"({self.n},{self.s})"


IDENTITY = GroupElement(0, 0)
FLIP = GroupElement(0, 1)
TRANSLATION = GroupElement(1, 0)
#: The two reflections whose fixed points enter odd-degree homology.
REFLECTIONS = (("sigma", FLIP), ("phiSigma", GroupElement(1, 1)))


@dataclass(frozen=True)
class FixedPointSet:
    """The exact fixed points of one group element in a circle system."""

    element: GroupElement
    points: tuple

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ThreadCount:
    """Fixed-point count of an odometer element across levels.

    ``count`` is the number of level-compatible fixed threads surviving
    backward pruning from the computation horizon; ``stabilized_at`` is
    the first level from which that count is constant on the pruned
    range.
    """

    element: GroupElement
    count: int
    stabilized_at: int
    horizon: int
    per_level: tuple


#: The ceiling on levels: a circle's --max-level and a geometric odometer's
#: ``levels``, so that the cost stays bounded whatever the request.
_MAX_LEVEL = 128

#: The ceiling on the cosets of an odometer castle level, whose base and
#: check hold one entry per coset.
_MAX_COSETS = 10 ** 6


def require_castle_cosets(modulus: int) -> None:
    if modulus > _MAX_COSETS:
        raise ValueError(f"a castle level of {modulus} cosets is above the ceiling of "
                         f"{_MAX_COSETS} cosets")


# ---------------------------------------------------------------------------
# Circle systems
# ---------------------------------------------------------------------------


class DenjoyFlipSystem:
    """Rotation by theta plus the flip x -> -x on the cut circle."""

    kind = "denjoy_flip"

    def __init__(self, theta: Theta):
        self.theta = theta

    def __eq__(self, other) -> bool:
        return isinstance(other, DenjoyFlipSystem) and self.theta == other.theta

    def __hash__(self) -> int:
        return hash((self.kind, self.theta))

    def full(self) -> ClopenSet:
        return ClopenSet.full_circle(self.theta)

    def empty(self) -> ClopenSet:
        return ClopenSet.empty(self.theta)

    def act(self, g: GroupElement, s: ClopenSet) -> ClopenSet:
        """Exact image of a clopen set under (n,s): x -> (-1)^s x + n*theta.

        The flip sends [l+, r+) to [(-r)+, (-l)+) because it swaps the
        two copies of every cut point.
        """
        if s.full or s.is_empty():
            return s
        arcs = []
        for a in s.arcs:
            if g.s:
                left = a.right.negate().shift(g.n)
                right = a.left.negate().shift(g.n)
            else:
                left = a.left.shift(g.n)
                right = a.right.shift(g.n)
            arcs.append(Arc(left, right))
        arcs.sort(key=lambda a: a.left)
        return ClopenSet(self.theta, tuple(arcs))

    def fixed_points(self, g: GroupElement) -> FixedPointSet:
        """Solve (-1)^s x + n*theta = x on the cut circle.

        Rotations are free.  For a reflection the two circle solutions
        n*theta/2 and n*theta/2 + 1/2 are kept only when they avoid the
        cut lattice, where the flip exchanges the two copies instead of
        fixing anything.
        """
        if g.is_identity():
            raise ValueError("fixed points are only defined for non-identity elements")
        if g.s == 0:
            return FixedPointSet(g, ())
        theta = self.theta
        half = Fraction(1, 2)
        candidates = [
            QuadExt(Fraction(0), Fraction(g.n, 2), theta).frac(),
            QuadExt(half, Fraction(g.n, 2), theta).frac(),
        ]
        points = []
        for x in candidates:
            # x is a cut point iff x = m + k*theta with integers m, k.
            if x.a.denominator == 1 and x.b.denominator == 1:
                continue
            points.append(x)
        points.sort()
        return FixedPointSet(g, tuple(points))

    def fixed_point_report(self, g: GroupElement, max_level: Optional[int]) -> list:
        """The fixed points of g, formatted; they are exact, so
        ``max_level`` is not used."""
        return [format_point(p) for p in self.fixed_points(g).points]

    # -- clopen sets ----------------------------------------------------

    def set_from_json(self, data: dict) -> ClopenSet:
        return ClopenSet.from_json(self.theta, data)

    def partition_flags(self, pieces: Sequence[ClopenSet]) -> tuple:
        """``(disjoint, covers)`` of the pieces, by one sorted sweep."""
        return sweep_partition(pieces)

    def invariant_window(self, window: int) -> ClopenSet:
        """The arc [1-u, u) for the least cut value u above 1/2 among the
        cuts n*theta with |n| <= ``window``, a positive integer.

        Such arcs are flip-invariant by construction and shrink to the
        flip fixed point 1/2 as the window grows.  One of theta and
        1 - theta lies above 1/2, so every window has such a cut.
        """
        theta = self.theta
        half = Fraction(1, 2)
        cuts = (CutPoint.of(theta, n) for n in range(-window, window + 1))
        u = min(c for c in cuts if theta.sign_of(c.value.a - half, c.value.b) > 0)
        return ClopenSet(theta, (Arc(u.negate(), u),))

    # -- level structure ----------------------------------------------

    def cut_window(self, lo: int, hi: int) -> list:
        return sorted(CutPoint.of(self.theta, n) for n in range(lo, hi + 1))

    def cells(self, lo: int, hi: int) -> "_CircleCells":
        """The cells of the cut window [lo, hi]: the arcs between
        consecutive cuts n*theta, lo <= n <= hi, in the order of their
        left cuts, indexed by the sort that ordered the cuts.

        A single cut yields one cell: the whole circle opened at that
        cut, represented by the full-circle set.
        """
        return _CircleCells(self.theta, self.cut_window(lo, hi))

    def level_windows(self, level: int) -> tuple:
        """The cells of level N for the flip and for the reflected rotation:
        the windows [-N, N], which the flip permutes, and [1-N, N], which
        (1,1) permutes, since no finite window is invariant under both
        involutions.

        The second window is also the relation window of the first: the
        rotation by one moves its cuts into the first window.
        """
        return self.cells(-level, level), self.cells(1 - level, level)

    def level_chain(self, top: int) -> list:
        """``[level_windows(t) for t in 1..top]``, from one growing cut list.

        Window [1-t, t] is window [1-t, t-1] plus the cut t, and window
        [-t, t] is that plus the cut -t, so each cut is placed once, by
        bisection in the exact cut order, and each window is a snapshot
        of the list.
        """
        theta = self.theta
        cuts = [CutPoint.of(theta, 0)]
        chain = []
        for t in range(1, top + 1):
            insort(cuts, CutPoint.of(theta, t))
            reflected = _CircleCells(theta, cuts[:])
            insort(cuts, CutPoint.of(theta, -t))
            chain.append((_CircleCells(theta, cuts[:]), reflected))
        return chain

    def depth(self, max_level: int, cell_cap: Optional[int] = None) -> int:
        """The deepest level a computation up to ``max_level`` uses.

        Level N has 2N + 1 cells, so ``max_level`` bounds the cost and
        ``cell_cap`` (a bound on odometer cosets) does not apply.  A
        request above the ceiling of 128 levels is rejected, so that the
        cost stays bounded whatever the request.
        """
        if max_level > _MAX_LEVEL:
            raise ValueError(f"max_level {max_level} is above the ceiling of "
                             f"{_MAX_LEVEL} circle levels")
        return max_level

    def reflection_fixed(self, depth: int) -> tuple:
        """Fixed points of (0,1) and (1,1) as the homology table reports them.

        Returns the report name, the count per reflection and their sum;
        the points are exact, so ``depth`` is not used.
        """
        counts = {name: len(self.fixed_points(g)) for name, g in REFLECTIONS}
        if not any(counts.values()):
            raise ValueError("circle flip systems always have reflection fixed points")
        return "fixedPoints", counts, sum(counts.values())

    def to_json(self) -> dict:
        return {"type": self.kind, "theta": self.theta.to_json()}


# ---------------------------------------------------------------------------
# Doubled system (free action whose translation part is not minimal)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubledClopen:
    """A clopen subset of two disjoint copies of the cut circle."""

    comp0: ClopenSet
    comp1: ClopenSet

    def union(self, other: "DoubledClopen") -> "DoubledClopen":
        return DoubledClopen(self.comp0.union(other.comp0), self.comp1.union(other.comp1))

    def intersection(self, other: "DoubledClopen") -> "DoubledClopen":
        return DoubledClopen(self.comp0.intersection(other.comp0),
                             self.comp1.intersection(other.comp1))

    def difference(self, other: "DoubledClopen") -> "DoubledClopen":
        return DoubledClopen(self.comp0.difference(other.comp0),
                             self.comp1.difference(other.comp1))

    def is_empty(self) -> bool:
        return self.comp0.is_empty() and self.comp1.is_empty()

    def measure(self) -> QuadExt:
        # Normalized so the two-copy space has total measure 1.
        return (self.comp0.measure() + self.comp1.measure()) * Fraction(1, 2)

    def to_json(self) -> dict:
        return {"components": [self.comp0.to_json(), self.comp1.to_json()]}


class DoubledSystem:
    """Two copies of the cut circle, exchanged by the flip.

    The translation rotates copy 0 forwards and copy 1 backwards, which
    makes the dihedral relations hold while leaving each copy
    translation-invariant.  The action is free: the flip part swaps the
    copies and the rotation part is an irrational rotation.
    """

    kind = "doubled"

    def __init__(self, theta: Theta):
        self.theta = theta
        self.base = DenjoyFlipSystem(theta)

    def __eq__(self, other) -> bool:
        return isinstance(other, DoubledSystem) and self.theta == other.theta

    def __hash__(self) -> int:
        return hash((self.kind, self.theta))

    def full(self) -> DoubledClopen:
        return DoubledClopen(self.base.full(), self.base.full())

    def empty(self) -> DoubledClopen:
        return DoubledClopen(self.base.empty(), self.base.empty())

    def act(self, g: GroupElement, s: DoubledClopen) -> DoubledClopen:
        a, b = (s.comp1, s.comp0) if g.s else (s.comp0, s.comp1)
        fwd = GroupElement(g.n, 0)
        return DoubledClopen(self.base.act(fwd, a), self.base.act(fwd.inverse(), b))

    def fixed_points(self, g: GroupElement) -> FixedPointSet:
        if g.is_identity():
            raise ValueError("fixed points are only defined for non-identity elements")
        # Reflections swap the two copies; translations restrict to free
        # irrational rotations on each copy.
        return FixedPointSet(g, ())

    # formatted as for the circle: none, since the action is free
    fixed_point_report = DenjoyFlipSystem.fixed_point_report

    def set_from_json(self, data: dict) -> DoubledClopen:
        c0, c1 = data["components"]
        return DoubledClopen(self.base.set_from_json(c0), self.base.set_from_json(c1))

    def partition_flags(self, pieces: Sequence[DoubledClopen]) -> tuple:
        """``(disjoint, covers)`` of the pieces, by one sweep per copy."""
        d0, c0 = sweep_partition([p.comp0 for p in pieces])
        d1, c1 = sweep_partition([p.comp1 for p in pieces])
        return d0 and d1, c0 and c1

    def invariant_window(self, window: int) -> DoubledClopen:
        """[0, u) on both copies, for the least cut value u above 0 among
        the cuts n*theta with 0 < |n| <= ``window``, a positive integer.

        The flip exchanges the copies, so the pair is flip-invariant.
        """
        theta = self.theta
        u = min(CutPoint.of(theta, n) for n in range(-window, window + 1) if n)
        z = ClopenSet(theta, (Arc(CutPoint.of(theta, 0), u),))
        return DoubledClopen(z, z)

    def to_json(self) -> dict:
        return {"type": self.kind, "theta": self.theta.to_json()}


# ---------------------------------------------------------------------------
# Odometers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSet:
    """A clopen subset of the inverse limit, given at a finite level.

    ``residues`` collects the classes k mod ``modulus`` whose cylinder
    belongs to the set.
    """

    modulus: int
    residues: frozenset

    def __post_init__(self) -> None:
        if any(not (0 <= k < self.modulus) for k in self.residues):
            raise ValueError("residues must be reduced modulo the level modulus")

    def union(self, other: "LevelSet") -> "LevelSet":
        self._check(other)
        return LevelSet(self.modulus, self.residues | other.residues)

    def intersection(self, other: "LevelSet") -> "LevelSet":
        self._check(other)
        return LevelSet(self.modulus, self.residues & other.residues)

    def difference(self, other: "LevelSet") -> "LevelSet":
        self._check(other)
        return LevelSet(self.modulus, self.residues - other.residues)

    def is_empty(self) -> bool:
        return not self.residues

    def measure(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)

    def _check(self, other: "LevelSet") -> None:
        if self.modulus != other.modulus:
            raise ValueError("level sets at different levels")

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "residues": sorted(self.residues)}


class OdometerSystem:
    """The odometer along a strict divisibility chain n_1 | n_2 | ..."""

    kind = "odometer"

    def __init__(self, chain: Sequence[int]):
        chain = tuple(int(n) for n in chain)
        if len(chain) < 2:
            raise ValueError("chain must contain at least two levels")
        for a, b in zip(chain, chain[1:]):
            if not (0 < a < b):
                raise ValueError("chain must be strictly increasing and positive")
            if b % a:
                raise ValueError("each level must divide the next")
        self.chain = chain

    def __eq__(self, other) -> bool:
        return isinstance(other, OdometerSystem) and self.chain == other.chain

    def __hash__(self) -> int:
        return hash((self.kind, self.chain))

    def modulus(self, level: int) -> int:
        if not (1 <= level <= len(self.chain)):
            raise ValueError(f"level must be in 1..{len(self.chain)}")
        return self.chain[level - 1]

    def full(self, level: int) -> LevelSet:
        n = self.modulus(level)
        return LevelSet(n, frozenset(range(n)))

    def empty(self, level: int) -> LevelSet:
        return LevelSet(self.modulus(level), frozenset())

    def act(self, g: GroupElement, s: LevelSet) -> LevelSet:
        sign = -1 if g.s else 1
        return LevelSet(s.modulus,
                        frozenset((g.n + sign * k) % s.modulus for k in s.residues))

    def fixed_fraction(self, g: GroupElement, level: int) -> Fraction:
        """|{x in Z/n_i : g x = x}| / n_i, exactly."""
        return Fraction(len(self.level_fixed_set(g, level)), self.modulus(level))

    def level_fixed_set(self, g: GroupElement, level: int) -> frozenset:
        n = self.modulus(level)
        if g.s == 0:
            return frozenset(range(n)) if g.n % n == 0 else frozenset()
        g2 = gcd(2, n)
        if g.n % g2:
            return frozenset()
        # Solutions of 2x = g.n (mod n): one per residue class mod n//g2.
        half = n // g2
        if g2 == 2:
            x0 = (g.n // 2) % half
        else:
            x0 = (g.n * pow(2, -1, n)) % n
        return frozenset((x0 + t * half) % n for t in range(g2))

    def stable_fixed_count(self, g: GroupElement, max_level: int) -> ThreadCount:
        """Count inverse-limit fixed points of g by thread pruning.

        Level-wise fixed sets are chained by the reduction maps; threads
        that cannot be extended to the horizon are pruned away, and the
        count must be constant on the pruned range to be reported.
        """
        if g.is_identity():
            raise ValueError("count is only defined for non-identity elements")
        if max_level < 2:
            raise ValueError("max_level must be >= 2")
        if max_level > len(self.chain):
            raise ValueError("max_level exceeds the computed chain")
        if g.s == 0:
            # A translation fixes every cylinder of a level or none.  If it
            # fixes the top level, it fixes every level below, and each
            # residue is the reduction of a top one; if not, no thread
            # survives pruning.
            top_fixed = g.n % self.modulus(max_level) == 0
            counts = [self.modulus(level) if top_fixed else 0
                      for level in range(1, max_level + 1)]
        else:
            forward = []
            for level in range(1, max_level + 1):
                fixed = self.level_fixed_set(g, level)
                if forward:
                    prev = forward[-1]
                    n_prev = self.modulus(level - 1)
                    fixed = frozenset(x for x in fixed if (x % n_prev) in prev)
                forward.append(fixed)
            pruned = list(forward)
            for level in range(max_level - 1, 0, -1):
                n_here = self.modulus(level)
                reachable = {y % n_here for y in pruned[level]}
                pruned[level - 1] = frozenset(x for x in pruned[level - 1] if x in reachable)
            counts = [len(s) for s in pruned]
        usable = counts[:-1]
        final = usable[-1]
        stabilized_at = len(usable)
        while stabilized_at > 1 and usable[stabilized_at - 2] == final:
            stabilized_at -= 1
        if any(c != final for c in usable[stabilized_at - 1:]):
            raise NonStabilizationError(
                f"thread count for {g} still changing at level {max_level}", max_level)
        if stabilized_at == len(usable) and len(usable) > 1:
            raise NonStabilizationError(
                f"thread count for {g} settled only at the horizon", max_level)
        return ThreadCount(element=g, count=final, stabilized_at=stabilized_at,
                           horizon=max_level, per_level=tuple(counts))

    def fixed_point_report(self, g: GroupElement, max_level: Optional[int]) -> dict:
        """The stable thread count of g and the level it settles at,
        computed to ``depth(max_level)`` (the whole chain if None)."""
        tc = self.stable_fixed_count(
            g, self.depth(len(self.chain) if max_level is None else max_level))
        return {"count": tc.count, "stabilizedAt": tc.stabilized_at}

    # -- clopen sets ----------------------------------------------------

    def set_from_json(self, data: dict) -> LevelSet:
        return LevelSet(int(data["modulus"]), frozenset(int(k) for k in data["residues"]))

    def partition_flags(self, pieces: Sequence[LevelSet]) -> tuple:
        """``(disjoint, covers)`` of level sets of one level, by marking
        their residues in one bytearray."""
        if not pieces:
            return True, False
        modulus = pieces[0].modulus
        require_castle_cosets(modulus)
        seen = bytearray(modulus)
        disjoint, hits = True, 0
        for p in pieces:
            if p.modulus != modulus:
                raise ValueError("level sets at different levels")
            for r in p.residues:
                if seen[r]:
                    disjoint = False
                else:
                    seen[r] = 1
                    hits += 1
        return disjoint, hits == modulus

    # -- level structure ----------------------------------------------

    def cells(self, level: int) -> "_CylinderCells":
        """The cylinders of level ``level``, cell r being residue r."""
        return _CylinderCells(self.modulus(level))

    def level_windows(self, level: int) -> tuple:
        """The cells of level N for the flip and for the reflected rotation:
        one list of cylinders, which both permute, and which is its own
        relation window, since the translation permutes it too."""
        cells = self.cells(level)
        return cells, cells

    def level_chain(self, top: int) -> list:
        """``[level_windows(t) for t in 1..top]``."""
        return [self.level_windows(t) for t in range(1, top + 1)]

    def depth(self, max_level: int, cell_cap: Optional[int] = None) -> int:
        """The deepest level up to ``max_level`` within the chain and, if
        ``cell_cap`` is given, with at most that many cosets."""
        top = min(max_level, len(self.chain))
        if cell_cap is not None:
            top = min(top, bisect_right(self.chain, cell_cap))
        return top

    def reflection_fixed(self, depth: int) -> tuple:
        """Fixed threads of (0,1) and (1,1) up to ``depth``, as the homology
        table reports them: the report name, the count and level of
        stabilization per reflection, and the sum of the counts."""
        report = {name: self.fixed_point_report(g, depth) for name, g in REFLECTIONS}
        return "fixedThreads", report, sum(r["count"] for r in report.values())

    def to_json(self) -> dict:
        return {"type": self.kind, "chain": list(self.chain)}


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------


class _LevelCells(tuple):
    """The cells of one level in their order, with the index the level
    matrices read.  Only ``DenjoyFlipSystem.cells`` and
    ``OdometerSystem.cells`` build them; a slice or any list of cells
    carries no index and is refused as cells."""


class _CircleCells(_LevelCells):
    """The cells of a cut window: cell i is the arc from the i-th of its
    sorted cuts to the next, cyclically, so the arc between two of the
    window's cuts is the cyclic run of cells from one to the other.  A
    one-cut window has one cell, the full circle."""

    def __new__(cls, theta: Theta, cuts: list):
        if len(cuts) == 1:
            cells = (ClopenSet.full_circle(theta),)
        else:
            cells = (ClopenSet(theta, (Arc(c, nxt),)) for c, nxt in zip(cuts, cuts[1:] + cuts[:1]))
        self = super().__new__(cls, cells)
        self.theta = theta
        self.cuts = cuts
        self.pos = {c.n: i for i, c in enumerate(cuts)}
        return self

    def length_state(self) -> list:
        """The exact lengths a + b*theta of the cells, as the rows of
        their a and of their b: cell i runs from cut i to cut i+1, so its
        length is the difference of their values m + n*theta, plus one
        on the cell that wraps past 0."""
        cuts = self.cuts
        ends = cuts[1:] + cuts[:1]
        wraps = [0] * (len(cuts) - 1) + [1]
        return [[b.m - a.m + w for a, b, w in zip(cuts, ends, wraps)],
                [b.n - a.n for a, b in zip(cuts, ends)]]

    def require(self, system) -> None:
        if not (isinstance(system, DenjoyFlipSystem) and system.theta == self.theta):
            raise ValueError("the system does not act on these circle cells")

    def _check(self, s) -> None:
        if not isinstance(s, ClopenSet) or s.theta != self.theta:
            raise ValueError("not a circle set over the cells' theta")

    def _runs(self, s: ClopenSet, ends: list) -> list:
        if s.full:
            return list(range(len(self)))
        if not s.arcs:
            raise ValueError("target is not covered by the given cells")
        picked = []
        for a, b in ends:
            if a not in self.pos or b not in self.pos:
                raise ValueError("target is not a union of the given cells")
            i, j = self.pos[a], self.pos[b]
            picked.extend(range(i, j) if i < j else [*range(i, len(self)), *range(j)])
        return sorted(picked)

    def cover(self, target) -> list:
        self._check(target)
        return self._runs(target, [(a.left.n, a.right.n) for a in target.arcs])

    def preimage(self, g_inv: GroupElement, cell) -> list:
        # g_inv sends cut n to (-1)^s n + g_inv.n; the flip swaps an arc's ends.
        self._check(cell)
        k = g_inv.n
        if g_inv.s:
            ends = [(k - a.right.n, k - a.left.n) for a in cell.arcs]
        else:
            ends = [(a.left.n + k, a.right.n + k) for a in cell.arcs]
        return self._runs(cell, ends)


class _CylinderCells(_LevelCells):
    """The cylinders of one odometer level Z/n: cell r is the cylinder of
    residue r.  A target may be a level set of any level whose modulus
    divides n: residue r mod m is the union of the cells r + t*m."""

    def __new__(cls, modulus: int):
        self = super().__new__(cls, (LevelSet(modulus, frozenset({r})) for r in range(modulus)))
        self.modulus = modulus
        return self

    def length_state(self) -> list:
        """The measures of the cylinders in units of 1/n: one row of ones."""
        return [[1] * self.modulus]

    def require(self, system) -> None:
        if not isinstance(system, OdometerSystem):
            raise ValueError("the system does not act on odometer cells")

    @staticmethod
    def _sorted(residues: list) -> list:
        if not residues:
            raise ValueError("target is not covered by the given cells")
        return sorted(residues)

    def cover(self, target) -> list:
        if not isinstance(target, LevelSet) or self.modulus % target.modulus:
            raise ValueError("not a level set at the cells' level or a coarser one")
        m = target.modulus
        return self._sorted([r + t * m for r in target.residues
                             for t in range(self.modulus // m)])

    def preimage(self, g_inv: GroupElement, cell) -> list:
        if not isinstance(cell, LevelSet) or cell.modulus != self.modulus:
            raise ValueError("not a level set at the cells' level")
        sign = -1 if g_inv.s else 1
        return self._sorted([(g_inv.n + sign * r) % self.modulus for r in cell.residues])


def _indexed(cells) -> _LevelCells:
    if not isinstance(cells, _LevelCells):
        raise ValueError("cells must be the cells of one level, as a system's cells() gives them")
    return cells


def cover_indices(target, cells: _LevelCells) -> list:
    """Indices of the cells whose union is exactly ``target``; exact check.

    ``cells`` must be the cells of one level (see the module docstring);
    a target that is not a union of them raises ``ValueError``.
    """
    return _indexed(cells).cover(target)


def cover_matrix(coarse: Sequence, fine: _LevelCells) -> list:
    """Matrix of the refinement: column j sums the fine cells inside coarse j."""
    index = _indexed(fine)
    mat = [[0] * len(coarse) for _ in range(len(fine))]
    for j, c in enumerate(coarse):
        for i in index.cover(c):
            mat[i][j] = 1
    return mat


def pullback_matrix(system, g: GroupElement, src_cells: Sequence, dst_cells: _LevelCells) -> list:
    """Matrix of f -> f o g from functions on src_cells to functions on dst_cells.

    The indicator of a source cell pulls back to the indicator of its
    preimage, which must be an exact union of destination cells.  The
    preimage's ends come from integer arithmetic on cut indices or
    residues, so no set is built.
    """
    index = _indexed(dst_cells)
    index.require(system)
    g_inv = g.inverse()
    mat = [[0] * len(src_cells) for _ in range(len(dst_cells))]
    for j, c in enumerate(src_cells):
        for i in index.preimage(g_inv, c):
            mat[i][j] = 1
    return mat


def pullback_permutation(system, g: GroupElement, cells: _LevelCells) -> list:
    """``pullback_matrix(system, g, cells, cells)`` for a g that permutes
    the cells, as the row of the one in each column.  A g that does not
    permute them sends some cell outside the list, and the index raises
    ``ValueError``."""
    index = _indexed(cells)
    index.require(system)
    g_inv = g.inverse()
    return [index.preimage(g_inv, c)[0] for c in cells]


def system_from_json(data: dict):
    """Parse a system description; unknown fields are rejected."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("system description must be an object with a 'type'")
    kind = data["type"]
    if kind in ("denjoy_flip", "doubled"):
        extra = set(data) - {"type", "theta"}
        if extra:
            raise ValueError(f"unknown system fields: {sorted(extra)}")
        theta = Theta.from_json(data["theta"])
        return DenjoyFlipSystem(theta) if kind == "denjoy_flip" else DoubledSystem(theta)
    if kind == "odometer":
        if "chain" in data:
            extra = set(data) - {"type", "chain"}
            if extra:
                raise ValueError(f"unknown system fields: {sorted(extra)}")
            return OdometerSystem([json_int(n, "odometer chain entry") for n in data["chain"]])
        extra = set(data) - {"type", "base", "growth", "levels"}
        if extra:
            raise ValueError(f"unknown system fields: {sorted(extra)}")
        if data.get("growth") != "geometric":
            raise ValueError("only geometric chain growth is supported")
        base, levels = (json_int(data[k], f"odometer field {k!r}") for k in ("base", "levels"))
        if levels > _MAX_LEVEL:
            raise ValueError(f"levels {levels} is above the ceiling of "
                             f"{_MAX_LEVEL} odometer levels")
        return OdometerSystem([base ** i for i in range(1, levels + 1)])
    raise ValueError(f"unknown system type: {kind!r}")
