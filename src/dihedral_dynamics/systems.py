"""Concrete Cantor minimal systems for the infinite dihedral group.

Three families of systems are provided:

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
to (-1)^s n + k, and a flip swaps the two ends of an arc.  Every cut
comes from its theta's table, which builds each cut once with its
integer key, so acting and building windows look cuts up and order
them by key, settling equal keys by exact signs.  So the image
of an arc between cuts is again such an arc, it is a union of cells
exactly when both its ends are cells' left cuts, and it then holds the
cyclic run of cells between them.  An odometer level's cells are the
cylinders of Z/n_i, named by residue, and the group acts on residues;
a cylinder of a coarser level n_j | n_i is the union of the n_i / n_j
cylinders whose residues reduce to its own.  A level's cells are a
window that carries its own index, built with the window: a circle
window keeps the position of each cut from the sort that ordered them,
and an odometer cell's position is its residue.  The level matrices read
that index, in integers, with no set operations; any other sequence of
cells is refused.  The cells also fix the action on their cut indices
or residues, so a pullback takes g and cells, and no system.
:func:`cover_matrix` and :func:`pullback_matrix` return sparse columns,
one {cell: 1} per source cell, so they cost their nonzeros and never
rows x cols; :func:`pullback_permutation` writes a g that permutes the
cells as one index per cell.  :func:`cover_indices`
looks up one target, and no homology computation calls it.

For homology the circle and the odometer answer two questions: their
levels (``level_chain``) and their reflections' fixed points
(``reflection_fixed``), each asked with the requested top level.
``level_chain(N)`` gives, for each level t = 1..N, the cells of level t
and their relation window; a circle refuses an N above 128, and an
odometer's list stops inside its chain, at its last level of at most
512 cosets.  The flip (0,1) permutes a circle's window [-t, t] and
the reflected rotation (1,1) its window [1-t, t]; a rotation by one
moves the cuts of [1-t, t] into [-t, t], so the translation relations
of level t are taken on [1-t, t] and land in [-t, t].  Both reflections
and the translation permute an odometer's level cylinders, so one list
serves as both windows.  Every window of either system is built by its
``cells``, the one builder of level cells.  Each window also has its
length state (``length_state``), the exact lengths of its cells as
integer rows.

Castles, certificates and the CLI ask every system the same questions:
``act`` (the image of a clopen set), ``set_from_json`` (a clopen set
from its JSON), ``partition_flags`` (whether pieces are disjoint and
cover the space), ``invariant_window`` and ``certificate_base`` (the
flip-invariant bases of ``castle`` and of certificates),
``first_returns`` (the pieces of a base by their first-return times),
``fixed_point_report`` (the fixed points of an element as
``fixed-points`` prints them) and ``to_json``; its sets
answer ``intersection``, ``difference``, ``is_empty`` and an exact
``measure``.  Each answers in its own terms:

* the cut circle writes a set as arcs between cuts, checks pieces by one
  sorted sweep over their ends, reports exact fixed points, has the
  flip-invariant windows [1-u, u) around 1/2 (``invariant_window``,
  which reads "above 1/2" off each cut's key), shrunk for a certificate,
  and gives the first-return pieces of one arc shorter than 1/2 in
  closed form (three-distance theorem, :func:`_arc_returns`);
* the doubled system writes a set as one arc set per copy, sweeps each
  copy once, reports no fixed points (its action is free), has the
  flip-invariant windows [0, u) on both copies, shrunk as on the circle,
  and gives the pieces in closed form copy by copy, copy 1 turning
  backwards;
* the odometer writes a set as residues at one level, checks pieces by
  marking residues, reports stable thread counts within its chain,
  and has the level cylinders of 0 as its flip-invariant windows.

Every base without a closed form, an odometer's included, gets its
first-return pieces by stepping (:func:`_step_returns`).

Homology asks the circle and the odometer for their levels as above;
for the doubled system it reads only the translation H_0 of its base
circle (the split case).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

# the group elements, IDENTITY among them, are also imported from this module
from .amenability import (FLIP, IDENTITY, TRANSLATION, GroupElement, _invariance_target, folner,
                          folner_ratio)
from .errors import NonStabilizationError, VerificationError
from .exact_circle import (Arc, ClopenSet, CutPoint, QuadExt, Theta, format_point, json_int,
                           sort_by_cut, sweep_partition)

__all__ = [
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

    ``count`` is the number of fixed threads that reach the computation
    horizon, read at the level below it; ``stabilized_at`` is the first
    level from which that count is constant up to there.
    """

    element: GroupElement
    count: int
    stabilized_at: int


#: The ceiling on levels: a circle's --max-level and a geometric odometer's
#: ``levels``, so that the cost stays bounded whatever the request.
_MAX_LEVEL = 128

#: The ceiling on the cosets of an odometer castle level, whose base and
#: check hold one entry per coset.
_MAX_COSETS = 10 ** 6

#: The ceiling on the cosets of an odometer homology level.
_MAX_LEVEL_CELLS = 512


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

    def act(self, g: GroupElement, s: ClopenSet) -> ClopenSet:
        """Exact image of a clopen set under (n,s): x -> (-1)^s x + n*theta.

        The flip sends [l+, r+) to [(-r)+, (-l)+) because it swaps the
        two copies of every cut point.  The image cuts come from the
        theta's cut table, and the image arcs are put back in order by
        the keys of their left cuts.
        """
        if s.full or s.is_empty():
            return s
        theta, k, of = self.theta, g.n, CutPoint.of
        if g.s:
            arcs = [Arc(of(theta, k - a.right.n), of(theta, k - a.left.n)) for a in s.arcs]
        else:
            arcs = [Arc(of(theta, a.left.n + k), of(theta, a.right.n + k)) for a in s.arcs]
        return ClopenSet(theta, tuple(sort_by_cut(arcs, "left")))

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
        return self._window(self._least_cut(1, window))

    def _least_cut(self, lo: int, hi: int) -> CutPoint:
        """The least cut above 1/2 among the cuts n*theta with
        1 <= lo <= |n| <= hi: of the cuts of n and -n, whose values sum
        to 1, one lies above 1/2."""
        theta, of = self.theta, CutPoint.of
        return min(c for n in range(lo, hi + 1) for c in (of(theta, n), of(theta, -n))
                   if c.above_half())

    def _window(self, u: CutPoint) -> ClopenSet:
        return ClopenSet(self.theta, (Arc(u.negate(), u),))

    def _arc_copies(self, y: ClopenSet) -> Optional[tuple]:
        """(arc, direction the translation turns it) for the one arc of y,
        or None unless y is one arc."""
        return ((y.arcs[0], 1),) if len(y.arcs) == 1 else None

    def first_returns(self, y: ClopenSet, start: int, max_steps: int) -> dict:
        """{return time: piece of y} for the translation's first return to
        y, from step ``start`` on: in closed form when y is one arc
        shorter than 1/2 (:func:`_arc_returns`), by stepping otherwise."""
        arcs = _narrow(self._arc_copies(y))
        if arcs is None:
            return _step_returns(self, y, start, max_steps)
        return _arc_returns(*arcs[0], start, max_steps)

    def certificate_base(self, test_set: Sequence[GroupElement], eps: Fraction) -> tuple:
        """The first window ``invariant_window(2^k)`` whose first N translates
        are disjoint, and N, the invariance target in closed form."""
        n_target = _invariance_target(test_set, eps)
        return _shrink_until_disjoint(self, n_target), n_target

    # -- level structure ----------------------------------------------

    def cells(self, lo: int, hi: int) -> "_CircleCells":
        """The cells of the cut window [lo, hi]: the arcs between
        consecutive cuts n*theta, lo <= n <= hi, in the order of their
        left cuts, indexed by the sort that ordered the cuts.

        A single cut yields one cell: the whole circle opened at that
        cut, represented by the full-circle set.
        """
        theta = self.theta
        return _CircleCells(theta, sort_by_cut(CutPoint.of(theta, n) for n in range(lo, hi + 1)))

    def level_chain(self, top: int) -> list:
        """The cells of each level t = 1..top for the flip and for the
        reflected rotation: the windows [-t, t], which the flip permutes,
        and [1-t, t], which (1,1) permutes, since no finite window is
        invariant under both involutions.  The second window is also the
        relation window of the first: the rotation by one moves its cuts
        into the first window.  Each window is built by ``cells``; a
        ``top`` above the ceiling of 128 levels is refused."""
        if top > _MAX_LEVEL:
            raise ValueError(f"max_level {top} is above the ceiling of "
                             f"{_MAX_LEVEL} circle levels")
        return [(self.cells(-t, t), self.cells(1 - t, t)) for t in range(1, top + 1)]

    def reflection_fixed(self, max_level: int) -> tuple:
        """Fixed points of (0,1) and (1,1) as the homology table reports them.

        Returns the report name, the count per reflection and their sum;
        the points are exact, so ``max_level`` is not used.
        """
        counts = {name: len(self.fixed_points(g)) for name, g in REFLECTIONS}
        return "fixedPoints", counts, sum(counts.values())

    def to_json(self) -> dict:
        return {"type": self.kind, "theta": self.theta.to_json()}


#: Window doublings tried before a circle certificate base gives up.
_SHRINK_BUDGET = 16


def _shrink_until_disjoint(system, n_target: int):
    """Find a flip-invariant y whose first n_target translates are disjoint;
    a window with n_target * measure > 1 cannot have them and is not scanned.

    Window 2w's least cut is the lesser of window w's and the least among
    the cuts w < |n| <= 2w, so each cut is looked up once."""
    u = system._least_cut(1, 1)
    for k in range(_SHRINK_BUDGET):
        if k:
            u = min(u, system._least_cut(2 ** (k - 1) + 1, 2 ** k))
        y = system._window(u)
        if ((y.measure() * n_target).shift(-1).sign() <= 0
                and _translates_disjoint(system, y, n_target)):
            return y
    raise ValueError(
        f"no sufficiently small flip-invariant set within window 2^{_SHRINK_BUDGET - 1}")


def _translates_disjoint(system, y, n_target: int) -> bool:
    """Whether y, T y, ..., T^(n_target - 1) y are pairwise disjoint, for a
    y that is one arc on each copy, as every invariant window is: no
    k < n_target moves the arc onto itself (:func:`_arc_hits`)."""
    return all(_arc_hits(base, turn, 1, n_target - 1) == (None, None)
               for base, turn in system._arc_copies(y))


def _narrow(arcs: Optional[tuple]) -> Optional[tuple]:
    """``arcs`` when each is shorter than 1/2, else None."""
    if arcs is None or any(CutPoint.of(a.left.theta, a.right.n - a.left.n).above_half()
                           for a, _ in arcs):
        return None
    return arcs


def _arc_hits(base: Arc, turn: int, start: int, stop: int) -> tuple:
    """(k+, k-) for the arc [a, b) of length l, turned by turn*theta with
    turn = +1 or -1: k+ is the least k in start..stop whose cut turn*k
    lies below l, so that T^k moves [a, b) back over its own start, and
    k- the least one whose cut lies above 1 - l; None where there is no
    such k.  One scan of cut keys: the cut of index b - a has value l,
    and the cut of index a - b has value 1 - l."""
    theta, of = base.left.theta, CutPoint.of
    length, co_length = of(theta, base.right.n - base.left.n), of(theta, base.left.n - base.right.n)
    plus = minus = None
    for k in range(start, stop + 1):
        c = of(theta, turn * k)
        if plus is None and c < length:
            plus = k
        if minus is None and co_length < c:
            minus = k
        if plus is not None and minus is not None:
            break
    return plus, minus


def _arc_returns(base: Arc, turn: int, start: int, max_steps: int) -> dict:
    """The first return of the rotation by turn*theta to the arc [a, b),
    shorter than 1/2, from step ``start`` on, as {return time: piece}.

    By the three-distance theorem (Sos 1958; Slater 1967) the return
    time takes the values k+ and k- of :func:`_arc_hits` and k+ + k-: the
    points of [a, b - turn*k+*theta) return at k+, those of
    [a - turn*k-*theta, b) at k-, and those between, when there are any,
    at k+ + k-.  Since l < 1/2 no k is both, and the least ones leave the
    first two pieces disjoint.  A return later than ``max_steps`` raises
    ``VerificationError``, as the step loop does.
    """
    theta, of = base.left.theta, CutPoint.of
    a, b = base.left.n, base.right.n
    plus, minus = _arc_hits(base, turn, start, max_steps)
    if plus is None or minus is None:
        raise _no_full_return(max_steps)
    cut_plus, cut_minus = b - turn * plus, a - turn * minus

    def piece(left: int, right: int) -> ClopenSet:
        return ClopenSet(theta, (Arc(of(theta, left), of(theta, right)),))

    pieces = {plus: piece(a, cut_plus), minus: piece(cut_minus, b)}
    # the middle piece is nonempty when the cut ending the first lies
    # before the cut starting the second, read from a
    if of(theta, cut_plus - a) < of(theta, cut_minus - a):
        if plus + minus > max_steps:
            raise _no_full_return(max_steps)
        pieces[plus + minus] = piece(cut_plus, cut_minus)
    return pieces


def _no_full_return(max_steps: int) -> VerificationError:
    return VerificationError(f"no full return after {max_steps} steps; malformed input?")


def _step_returns(system, y, start: int, max_steps: int) -> dict:
    """{return time: piece of y} by stepping the translation, for a base
    of any family and shape: the translation moves the part of y that
    has not yet come back, and each nonempty intersection with y marks a
    return time, whose preimage is its piece.  The first step taken is
    ``start``; more than ``max_steps`` raise ``VerificationError``."""
    pieces = {}
    k = start - 1
    active = system.act(GroupElement(k, 0), y) if k else y
    while not active.is_empty():
        k += 1
        if k > max_steps:
            raise _no_full_return(max_steps)
        moved = system.act(TRANSLATION, active)
        hit = moved.intersection(y)
        if not hit.is_empty():
            pieces[k] = system.act(GroupElement(-k, 0), hit)
        active = moved.difference(y)
    return pieces


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
        return self._window(self._least_cut(1, window))

    def _least_cut(self, lo: int, hi: int) -> CutPoint:
        """The least cut among the cuts n*theta with 1 <= lo <= |n| <= hi."""
        theta, of = self.theta, CutPoint.of
        return min(of(theta, m) for n in range(lo, hi + 1) for m in (n, -n))

    def _window(self, u: CutPoint) -> DoubledClopen:
        z = ClopenSet(self.theta, (Arc(CutPoint.of(self.theta, 0), u),))
        return DoubledClopen(z, z)

    def _arc_copies(self, y: DoubledClopen) -> Optional[tuple]:
        """(arc, direction the translation turns it) on each copy, copy 1
        turning backwards, or None unless each copy of y is one arc."""
        if len(y.comp0.arcs) == len(y.comp1.arcs) == 1:
            return (y.comp0.arcs[0], 1), (y.comp1.arcs[0], -1)
        return None

    def first_returns(self, y: DoubledClopen, start: int, max_steps: int) -> dict:
        """{return time: piece of y} for the translation's first return to
        y, from step ``start`` on: in closed form, copy by copy, when each
        copy of y is one arc shorter than 1/2, by stepping otherwise."""
        arcs = _narrow(self._arc_copies(y))
        if arcs is None:
            return _step_returns(self, y, start, max_steps)
        fwd, back = (_arc_returns(base, turn, start, max_steps) for base, turn in arcs)
        empty = ClopenSet.empty(self.theta)
        return {k: DoubledClopen(fwd.get(k, empty), back.get(k, empty))
                for k in fwd.keys() | back.keys()}

    certificate_base = DenjoyFlipSystem.certificate_base

    def to_json(self) -> dict:
        return {"type": self.kind, "theta": self.theta.to_json()}


# ---------------------------------------------------------------------------
# Odometers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSet:
    """A clopen subset of the inverse limit, given at a finite level.

    ``residues`` collects the classes k mod ``modulus`` whose cylinder
    belongs to the set.  Set operations on two levels work at the lcm.
    """

    modulus: int
    residues: frozenset

    def __post_init__(self) -> None:
        if any(not (0 <= k < self.modulus) for k in self.residues):
            raise ValueError("residues must be reduced modulo the level modulus")

    def union(self, other: "LevelSet") -> "LevelSet":
        m = lcm(self.modulus, other.modulus)
        return LevelSet(m, self._at(m) | other._at(m))

    def intersection(self, other: "LevelSet") -> "LevelSet":
        m = lcm(self.modulus, other.modulus)
        return LevelSet(m, self._at(m) & other._at(m))

    def difference(self, other: "LevelSet") -> "LevelSet":
        m = lcm(self.modulus, other.modulus)
        return LevelSet(m, self._at(m) - other._at(m))

    def is_empty(self) -> bool:
        return not self.residues

    def measure(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)

    def _at(self, modulus: int) -> frozenset:
        """The residues at a multiple of the modulus m, k mod m being the
        classes k + t*m; above the coset ceiling none is built."""
        if modulus == self.modulus:
            return self.residues
        require_castle_cosets(modulus)
        return frozenset(k + t for t in range(0, modulus, self.modulus) for k in self.residues)

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

    def act(self, g: GroupElement, s: LevelSet) -> LevelSet:
        require_castle_cosets(s.modulus)  # no castle check could take a finer set
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
        """Count inverse-limit fixed points of g by the fixed threads that
        reach the horizon ``max_level`` (see :class:`ThreadCount`); a
        count that settles only at the level below the horizon, above
        level 1, raises ``NonStabilizationError``."""
        if g.is_identity():
            raise ValueError("count is only defined for non-identity elements")
        if max_level < 2:
            raise ValueError("max_level must be >= 2")
        if g.s == 0:
            # A translation fixes every cylinder of a level or none.  If it
            # fixes the top level, it fixes every level below, and each
            # residue is the reduction of a top one; if not, no thread
            # reaches the top.
            top_fixed = g.n % self.modulus(max_level) == 0
            counts = [self.modulus(level) if top_fixed else 0
                      for level in range(1, max_level)]
        else:
            # A residue with 2x = g.n mod n_{k+1} reduces to one with
            # 2x = g.n mod n_k, so each of the (at most two) fixed residues
            # at the horizon ends a thread, and no other thread reaches it.
            top = self.level_fixed_set(g, max_level)
            counts = [len({y % self.modulus(level) for y in top})
                      for level in range(1, max_level)]
        final = counts[-1]
        stabilized_at = len(counts)
        while stabilized_at > 1 and counts[stabilized_at - 2] == final:
            stabilized_at -= 1
        if stabilized_at == len(counts) > 1:
            raise NonStabilizationError(
                f"thread count for {g} settled only at the horizon", max_level)
        return ThreadCount(element=g, count=final, stabilized_at=stabilized_at)

    def fixed_point_report(self, g: GroupElement, max_level: Optional[int]) -> dict:
        """The stable thread count of g and the level it settles at,
        computed to ``max_level`` or the chain's end, whichever is first."""
        top = len(self.chain)
        tc = self.stable_fixed_count(g, top if max_level is None else min(max_level, top))
        return {"count": tc.count, "stabilizedAt": tc.stabilized_at}

    # -- clopen sets ----------------------------------------------------

    def set_from_json(self, data: dict) -> LevelSet:
        modulus = json_int(data["modulus"], "level set field 'modulus'")
        if modulus < 1 or self.chain[-1] % modulus:
            raise ValueError(f"level set field 'modulus' is {modulus}, not a positive "
                             f"divisor of the chain's last level {self.chain[-1]}")
        return LevelSet(modulus,
                        frozenset(json_int(k, "level set residue") for k in data["residues"]))

    def partition_flags(self, pieces: Sequence[LevelSet]) -> tuple:
        """``(disjoint, covers)`` of level sets, by marking their residues
        at the lcm of their moduli in one bytearray."""
        if not pieces:
            return True, False
        modulus = lcm(*(p.modulus for p in pieces))
        require_castle_cosets(modulus)
        seen, marks = bytearray(modulus), 0
        for p in pieces:
            ones = b"\1" * (modulus // p.modulus)
            marks += len(ones) * len(p.residues)
            for r in p.residues:
                seen[r::p.modulus] = ones
        hits = seen.count(1)
        return marks == hits, hits == modulus

    def invariant_window(self, level: int) -> LevelSet:
        """The cylinder of 0 mod n_level, seen at the next chain level when
        there is one within the coset ceiling, else at its own:
        flip-invariant, and each point returns after n_level steps."""
        step = self.modulus(level)
        modulus = self.modulus(min(level + 1, len(self.chain)))
        if modulus > _MAX_COSETS:
            modulus = step
        require_castle_cosets(modulus)
        return LevelSet(modulus, frozenset(range(0, modulus, step)))

    def first_returns(self, y: LevelSet, start: int, max_steps: int) -> dict:
        """{return time: piece of y} for the translation's first return to
        y, from step ``start`` on, by stepping."""
        return _step_returns(self, y, start, max_steps)

    def certificate_base(self, test_set: Sequence[GroupElement], eps: Fraction) -> tuple:
        """The window of the first level whose window set F_{n_level} is
        (test_set, eps)-invariant, and n_level, its points' return time."""
        for level, n in enumerate(self.chain, 1):
            if folner_ratio(folner(n), test_set) < eps:
                return self.invariant_window(level), n
        raise ValueError("no chain level is invariant enough; extend the chain")

    # -- level structure ----------------------------------------------

    def cells(self, level: int) -> "_CylinderCells":
        """The cylinders of level ``level``, cell r being residue r."""
        return _CylinderCells(self.modulus(level))

    def level_chain(self, top: int) -> list:
        """The cells of each level t = 1..top for the flip and for the
        reflected rotation: one list of cylinders, which both permute,
        and which is its own relation window, since the translation
        permutes it too.  The list stops at the last level of at most
        512 cosets."""
        top = min(top, bisect_right(self.chain, _MAX_LEVEL_CELLS))
        return [(cells, cells) for cells in map(self.cells, range(1, top + 1))]

    def reflection_fixed(self, max_level: int) -> tuple:
        """Fixed threads of (0,1) and (1,1) as ``fixed_point_report`` counts
        them, for the homology table: the report name, the count and level
        of stabilization per reflection, and the sum of the counts."""
        report = {name: self.fixed_point_report(g, max_level) for name, g in REFLECTIONS}
        return "fixedThreads", report, sum(r["count"] for r in report.values())

    def to_json(self) -> dict:
        return {"type": self.kind, "chain": list(self.chain)}


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------


class _LevelCells(tuple):
    """The cells of one level in their order, with the index the level
    matrices read.  Only the systems' ``cells`` build them; a slice or
    any list of cells carries no index and is refused as cells."""


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
    """The refinement's sparse columns: column j is 1 on each fine cell
    inside coarse cell j."""
    index = _indexed(fine)
    return [dict.fromkeys(index.cover(c), 1) for c in coarse]


def pullback_matrix(g: GroupElement, src_cells: Sequence, dst_cells: _LevelCells) -> list:
    """The sparse columns of f -> f o g from functions on src_cells to
    functions on dst_cells: column j is 1 on each destination cell of the
    preimage of source cell j.

    The indicator of a source cell pulls back to the indicator of its
    preimage, which must be an exact union of destination cells.  The
    preimage's ends come from integer arithmetic on cut indices or
    residues, so no set is built.
    """
    index = _indexed(dst_cells)
    g_inv = g.inverse()
    return [dict.fromkeys(index.preimage(g_inv, c), 1) for c in src_cells]


def pullback_permutation(g: GroupElement, cells: _LevelCells) -> list:
    """``pullback_matrix(g, cells, cells)`` for a g that permutes
    the cells, as the row of the one in each column.  A g that does not
    permute them sends some cell outside the list, and the index raises
    ``ValueError``."""
    index = _indexed(cells)
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
