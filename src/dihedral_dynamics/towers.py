"""Clopen towers, castles, and almost-finiteness certificates.

A tower is a clopen base moved disjointly by a finite shape of group
elements; a castle is a disjoint family of towers, and every castle
produced here partitions the space.  Castles are built from the first
return of the translation to a flip-invariant clopen set Y: the return
time is constant on finitely many clopen pieces of Y, each piece gets
its return time as tower height, and the flip folds each tower onto
itself (the flip composed with the full climb fixes the base).

Every family's castles come from :func:`first_return_castle`, which asks
no family question: each system hands it a flip-invariant base, its
``invariant_window`` for ``castle`` and its ``certificate_base`` for a
certificate (a shrunk window on circle and doubled systems, a level
cylinder on an odometer).

Verification is one routine, :func:`verify_castle`: it acts by every
shape element on its tower's base and checks the translates with the
system's ``partition_flags`` (one sorted sweep for circle pieces), then
checks that the flip composed with each full climb fixes the base.  A
castle is immutable, so :meth:`Castle.verify` runs it once per castle
and keeps the report; building, serializing and the CLI all read that
one report.

A certificate proves nothing twice.  The base comes with a count N of
translates already proved disjoint (on a circle the closed-form
invariance target, whose translates the base search sweeps; on an
odometer the cylinder's exact return time), so the first N - 1 steps of
the first-return loop meet the base nowhere, and the loop starts at
step N.  Its one ceiling, max(10^4, 16 N) on ceil(1/measure), is in
:func:`first_return_castle`, so it bounds ``castle --base`` (N = 1) too.

The window shape F_J holds (n, 0) for 0 <= n < J - J//2 and (n, 1) for
-J//2 <= n < 0.  Since (n, 1) = (n + J, 0) * (-J, 1), a base B with
(-J, 1) B = B has (n, 1) B = (n + J, 0) B, so once flip-compatibility
holds the window translates of B are exactly its climbs (k, 0) B for
0 <= k < J, and a verified castle partitions the space by climbs too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .amenability import folner, folner_ratio
from .errors import VerificationError
from .exact_circle import QuadExt, json_int
from .systems import FLIP, GroupElement, system_from_json

__all__ = [
    "Tower",
    "Castle",
    "CastleReport",
    "first_return_castle",
    "verify_castle",
    "almost_finite_certificate",
    "ceil_inverse_measure",
]


@dataclass(frozen=True)
class Tower:
    """A clopen base together with the shape that moves it disjointly."""

    base: object
    shape: tuple
    return_time: int


@dataclass(frozen=True)
class CastleReport:
    disjoint: bool
    covers: bool
    sigma_compatible: bool

    def all_ok(self) -> bool:
        return self.disjoint and self.covers and self.sigma_compatible

    def to_json(self) -> dict:
        return {
            "disjoint": self.disjoint,
            "covers": self.covers,
            "sigmaCompatible": self.sigma_compatible,
        }


@dataclass(frozen=True)
class Castle:
    """A family of towers over one system; verification is exact."""

    system: object
    towers: tuple

    def return_times(self) -> tuple:
        return tuple(t.return_time for t in self.towers)

    def verify(self) -> CastleReport:
        """The exact report of :func:`verify_castle`, computed once."""
        return self._report

    @cached_property
    def _report(self) -> CastleReport:
        return verify_castle(self)

    def shape_ratios(self, test_set: Sequence[GroupElement]) -> list:
        return [folner_ratio(t.shape, test_set) for t in self.towers]

    def to_json(self) -> dict:
        report = self.verify()
        return {
            "system": self.system.to_json(),
            "towers": [
                {
                    "base": t.base.to_json(),
                    "J": t.return_time,
                    "shape": [g.to_json() for g in t.shape],
                }
                for t in self.towers
            ],
            "verified": report.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Castle":
        """Read :meth:`to_json`'s output; JSON of another shape raises ``ValueError``."""
        try:
            system = system_from_json(data["system"])
            if not isinstance(data["towers"], list) or not data["towers"]:
                raise ValueError("a castle needs a nonempty list of towers")
            towers = []
            for tj in data["towers"]:
                base = system.set_from_json(tj["base"])
                shape = tuple(GroupElement.from_json(g) for g in tj["shape"])
                towers.append(Tower(base=base, shape=shape,
                                    return_time=json_int(tj["J"], "tower field 'J'")))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"bad castle JSON: {exc}") from exc
        return cls(system=system, towers=tuple(towers))


def verify_castle(castle: Castle) -> CastleReport:
    """Exact disjointness, coverage, and flip-compatibility of a castle."""
    system = castle.system
    translates = [system.act(g, t.base) for t in castle.towers for g in t.shape]
    disjoint, covers = system.partition_flags(translates)
    # flip after the full climb: sigma o phi^J is the element (-J, 1)
    sigma_compatible = all(
        system.act(GroupElement(-t.return_time, 1), t.base) == t.base
        for t in castle.towers
    )
    return CastleReport(disjoint=disjoint, covers=covers, sigma_compatible=sigma_compatible)


def ceil_inverse_measure(mu) -> int:
    """Smallest integer c with c * mu >= 1, for an exact measure mu > 0.

    That c is ceil(1/mu), and 1/mu lies in the field of mu = a + b*theta:
    with theta' the conjugate of theta, theta + theta' = 2p/r, so the
    conjugate of mu is (a + 2bp/r) - b*theta, and 1/mu is that conjugate
    over the rational norm mu * mu'.  An odometer's mu is a ``Fraction``.
    """
    if isinstance(mu, Fraction):
        return -(-mu.denominator // mu.numerator)
    theta = mu.theta
    conj_a = mu.a + 2 * mu.b * Fraction(theta.p, theta.r)
    # theta * theta' = (p^2 - q^2 d) / r^2
    norm = mu.a * conj_a + mu.b * mu.b * Fraction(
        theta.p * theta.p - theta.q * theta.q * theta.d, theta.r * theta.r)
    return -QuadExt(-conj_a / norm, mu.b / norm, theta).floor()


def first_return_castle(system, y, *, proven_disjoint: int = 1) -> Castle:
    """Partition the space into towers over the return-time pieces of y.

    The translation is applied to the moving image of the part of y
    that has not yet come back; each nonempty intersection with y marks
    a return-time value, whose preimage piece becomes a tower base.
    Before returning, the castle is verified exactly: the window-shape
    translates partition the space and the flip composed with each full
    climb fixes its base, so the climbs partition it as well (see the
    module docstring), whatever the system's family.

    ``proven_disjoint = n`` says that y, T y, ..., T^(n-1) y are already
    proved pairwise disjoint.  Then steps 1 .. n-1 meet y nowhere and
    leave all of y moving, so the loop starts at T^(n-1) y with one
    action.  A false claim cannot pass: each point of y is then placed
    by its first return at step n or later, so a point that returns
    sooner makes the floors' total measure exceed 1 (Kac's lemma) and
    the verification fails.  The loop takes about ceil(1/measure) steps,
    so a y with that above max(10^4, 16 * proven_disjoint) is refused
    (``ValueError``) before the first step.
    """
    if proven_disjoint < 1:
        raise ValueError("proven_disjoint must be at least 1")
    if y.is_empty():
        raise ValueError("y must be nonempty")
    if system.act(FLIP, y) != y:
        raise ValueError("y must be flip-invariant")
    inverse_measure = ceil_inverse_measure(y.measure())
    ceiling = max(10_000, 16 * proven_disjoint)
    if inverse_measure > ceiling:
        raise ValueError(
            f"base too small: ceil(1/measure) is above the ceiling of "
            f"max(10^4, 16 * {proven_disjoint}) = {ceiling}")
    max_steps = 10 * inverse_measure + 10

    step = GroupElement(1, 0)
    bases = {}
    k = proven_disjoint - 1
    active = system.act(GroupElement(k, 0), y) if k else y
    while not active.is_empty():
        k += 1
        if k > max_steps:
            raise VerificationError(
                f"no full return after {max_steps} steps; malformed input?")
        moved = system.act(step, active)
        hit = moved.intersection(y)
        if not hit.is_empty():
            bases[k] = system.act(GroupElement(-k, 0), hit)
        active = moved.difference(y)

    towers = tuple(
        Tower(base=bases[j], shape=tuple(folner(j).elements), return_time=j)
        for j in sorted(bases)
    )
    castle = Castle(system=system, towers=towers)

    report = castle.verify()
    if not report.all_ok():
        raise VerificationError(f"first-return castle failed verification: {report}")
    return castle


def almost_finite_certificate(system, test_set: Sequence[GroupElement],
                              eps: Fraction) -> tuple:
    """A partitioning castle whose every shape is (test_set, eps)-invariant,
    and its shape ratios, one per tower.

    The system proposes the base y and the number N of its translates
    already proved disjoint (``certificate_base``), which forces every
    return time to be at least N.  :func:`first_return_castle` then
    starts its loop at T^(N-1) y and refuses a y with ceil(1/measure)
    above max(10^4, 16 N).  The castle's invariance claims are re-checked
    exactly on the realized shapes.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    test_set = tuple(test_set)
    if not test_set:
        raise ValueError("the test set is empty; give at least one group element")

    y, proven = system.certificate_base(test_set, eps)
    castle = first_return_castle(system, y, proven_disjoint=proven)
    ratios = castle.shape_ratios(test_set)
    bad = [r for r in ratios if r >= eps]
    if bad:
        raise VerificationError(f"shape invariance violated: ratios {bad} >= {eps}")
    return castle, ratios
