"""Group homology of the dihedral systems, with an independent oracle.

The coefficient module is the group C(X, Z) of integer continuous
functions, presented through its finite level modules.  The homology of
the whole group is assembled either from the closed-form case analysis
(driven by exact fixed-point evidence) or from the free-product exact
sequence evaluated level by level, and the two must agree.  The
assembly's H_1 is the direct sum of two limits: the flip's odd
homologies along the flip windows and the reflected flip's along the
reflected windows.

Both reflections permute the cells of their windows, so the assembly
works in orbit coordinates (Shapiro's lemma): H_0 on the flip orbits,
with one relation per pair of the reflected flip, and odd homology
(Z/2)^{fixed cells}.  The order-2 homology of one module
(``odd_homology``, ``even_homology``, ``coinvariants``) is read off the
orbits of its signed permutation: a 2-cycle is a free orbit whatever
its sign, and only the fixed cells, +1 or -1, add Z/2 summands.  An
unnormalized bar complex, built as sparse rows for the Smith kernel,
cross-checks these counts (``bar_homologies`` eliminates each boundary
once for all degrees up to a top one).

Circle systems and odometers take one path through every level
computation.  Homology asks a system two questions, each up to the
requested level N: the cell lists that stand for levels 1..N and their
relation windows (``level_chain``: a circle's windows [-N, N] and
[1-N, N], an odometer's cylinders for both), and its reflections' fixed
points (``reflection_fixed``).  :func:`homology_levels`, the one builder
and length check of the level list, reads ``level_chain`` once and
builds each level's inclusions once (``cover_matrix``, for arcs and
cylinders alike).  That list is both routes' one input, as the cells fix
the action: the telescope reads a level as the cells of a stage and the
window of its translation relations, the free product as the windows of
the two reflections, and each names its levels by their count.  Every
matrix on the way is a list of sparse columns {row: nonzero}, as
``abgroups`` takes them: a telescope relation is the difference of two
columns, and the free product's maps are summed onto orbits column by
column.  Only a length state, two rows at most, is held densely; a
module's dense ``matrix`` is built only for the JSON that prints it.

The telescope is proved through the length state l_N of each level
(Putnam-Schmidt-Skau): a circle cell's exact length a + b*theta, or an
odometer cylinder's measure in units of 1/n_N.  The state kills the
translation relations and maps onto Z^r, so with the stage's one Smith
form equal to Z^r it identifies the stage with Z^r; each connecting map
is then multiplication by the integer c_N with l_{N+1} * incl = c_N * l_N
(which also proves it a map of stages), and the flip P acts trivially
on stage N exactly when l_N * P = l_N (see ``h0_translation_telescope``).
The closed form's degree 0, (1 + flip)H_0 = 2 H_0 for a trivial flip,
is isomorphic to the torsion-free H_0, so the table reads ``h0`` as is.

The free product's H_0 maps are proved maps of presented groups by an
exact identity M * R = R' * W (``abgroups.lift_identity``), whose lift
W is the reflected window's refinement taken onto the pairs of the
reflected flip (``_refinement_maps``): refinement commutes with both
reflections, so a coarse relation refines to a sum of finer ones.  Its
H_0 limit, through ``DirectSystem.limit``, is the independent second
route to the telescope's.  The odd homologies are vector spaces over
GF(2), each refinement map the inclusion restricted to fixed cells read
modulo 2, so their limits follow the same rule from GF(2) ranks alone
(``_odd_limit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    LimitDescriptor,
    LocalizationDescriptor,
    Matrix,
    Presentation,
    _axpy,
    kernel_basis,  # unused here; bench/layertrace.py traces it under this module's name
    lift_identity,
    mat_mul,  # unused here; bench/layertrace.py traces it under this module's name
    mat_vec,
    multiplier_limit,
    snf_diagonal,  # unused here; bench/layertrace.py traces it under this module's name
    sparse_snf_diagonal,
    top_run,
)
from .errors import NonStabilizationError, VerificationError
from .systems import (
    _MAX_LEVEL_CELLS,
    FLIP,
    TRANSLATION,
    DoubledSystem,
    GroupElement,
    cover_indices,  # unused here; bench/layertrace.py traces it under this module's name
    cover_matrix,
    pullback_matrix,
    pullback_permutation,
)

__all__ = [
    "InvolutionModule",
    "odd_homology",
    "even_homology",
    "coinvariants",
    "bar_homology",
    "bar_homologies",
    "TelescopeResult",
    "homology_levels",
    "h0_translation_telescope",
    "free_product_fragment",
    "free_product_homology",
    "HomologyTable",
    "homology_table",
    "split_orbit_table",
    "nonfree_action_table",
    "GroupValue",
]

GroupValue = Union[FGAbGroup, LocalizationDescriptor]


# ---------------------------------------------------------------------------
# Involution modules and the order-2 subgroup formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionModule:
    """A free abelian module on finitely many cells with an order-2 action.

    The action is a signed involutive permutation: the involution takes
    the cell e_j to signs[j] * e_perm[j], so column j of its matrix (f ->
    f o a on the cell basis) is signs[j] times the unit vector of cell
    perm[j].  It squares to the identity exactly when perm is an
    involution and each 2-cycle carries one sign.  A permutation module
    (every system level module is one) has every sign +1.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self) -> None:
        p = self.perm
        if not all(0 <= i < len(p) and p[i] == j for j, i in enumerate(p)):
            raise ValueError("perm must be a permutation of range(n) with perm[perm[i]] == i")
        if len(self.signs) != len(p) or any(
                s not in (1, -1) or self.signs[p[j]] != s for j, s in enumerate(self.signs)):
            raise ValueError("signs must be +-1, one per cell, equal on each 2-cycle")

    @classmethod
    def of(cls, matrix: Matrix) -> "InvolutionModule":
        """The module of a signed permutation matrix that squares to I;
        any other matrix is refused."""
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("involution matrix must be square")
        perm, signs = [], []
        for j in range(n):
            entries = [(i, int(row[j])) for i, row in enumerate(matrix) if row[j]]
            if len(entries) != 1 or entries[0][1] not in (1, -1):
                raise ValueError("involution matrix must be a signed permutation matrix")
            perm.append(entries[0][0])
            signs.append(entries[0][1])
        return cls(tuple(perm), tuple(signs))

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "InvolutionModule":
        """The module of an involutive permutation of range(n), checked in O(n)."""
        p = tuple(map(int, perm))
        return cls(p, (1,) * len(p))

    @property
    def ncells(self) -> int:
        return len(self.perm)

    @cached_property
    def matrix(self) -> tuple:
        return tuple(tuple(s if p == i else 0 for p, s in zip(self.perm, self.signs))
                     for i in range(len(self.perm)))

    @cached_property
    def orbits(self) -> Tuple[List[int], List[int], List[int]]:
        """The orbit of each cell, then the least cell of each 2-cycle and
        the fixed cells, in order; the orbits are numbered in that order,
        the pairs first."""
        pairs = [i for i, j in enumerate(self.perm) if i < j]
        fixed = [i for i, j in enumerate(self.perm) if i == j]
        label = [0] * len(self.perm)
        for k, i in enumerate(pairs + fixed):
            label[i] = label[self.perm[i]] = k
        return label, pairs, fixed

    @cached_property
    def negated_fixed(self) -> int:
        """The number of fixed cells with sign -1."""
        return sum(self.signs[i] < 0 for i in self.orbits[2])


# A 2-cycle with sign -1 is a free orbit in the basis (e_c, -e_t(c)), so
# only fixed cells add torsion: Z has odd homology Z/2, even homology 0
# and coinvariants Z; the sign module Z^- has 0, Z/2 and Z/2 (Brown,
# Cohomology of Groups, III.1).


def odd_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A - I) / im(A + I): the odd-degree homology of the order-2
    action, (Z/2)^{fixed +1 cells}."""
    return FGAbGroup.elementary_two(len(module.orbits[2]) - module.negated_fixed)


def even_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A + I) / im(A - I): the positive even-degree homology,
    (Z/2)^{fixed -1 cells}."""
    return FGAbGroup.elementary_two(module.negated_fixed)


def coinvariants(module: InvolutionModule) -> FGAbGroup:
    """coker(A - I), the degree-0 homology of the order-2 action: free on
    the 2-cycles and the fixed +1 cells, Z/2 on each fixed -1 cell."""
    _, pairs, fixed = module.orbits
    return FGAbGroup(len(pairs) + len(fixed) - module.negated_fixed, (2,) * module.negated_fixed)


# ---------------------------------------------------------------------------
# Bar-complex oracle
# ---------------------------------------------------------------------------

_BAR_MAX_DEGREE = 6
_BAR_MAX_CELLS = 8


@cache
def _bar_faces(k: int) -> tuple:
    """Per word of C_k (k >= 1), the (row block, summed sign) pairs of the
    faces that fix the cell, nonzero sums only."""
    words = []
    for w in range(1 << k):
        # face 0 of an even word moves g_1 = 1 onto the coefficient
        blocks = {} if w & 1 else {w >> 1: 1}
        for i in range(1, k):
            # middle face i merges letters i and i + 1, bits i - 1 and i
            b = (w >> i << (i - 1)) ^ (w & ((1 << i) - 1))
            blocks[b] = blocks.get(b, 0) + (-1) ** i
        # last face: drop g_k
        b = w & ((1 << (k - 1)) - 1)
        blocks[b] = blocks.get(b, 0) + (-1) ** k
        words.append(tuple((b, sign) for b, sign in blocks.items() if sign))
    return tuple(words)


def _bar_boundary(module: InvolutionModule, k: int) -> Tuple[dict, Tuple[int, int]]:
    """Boundary C_k -> C_{k-1} (k >= 1) of M tensored over the group ring
    with the unnormalized bar resolution of the 2-element group: the sparse
    rows {row: {col: nonzero}} of its matrix, every row kept, and its shape.

    C_k is free on (cell, word) with word a k-bit mask (bit = the
    involution, 0 = identity); the first face acts on the module side.
    Each word's faces that fix the cell (``_bar_faces``) are written by
    row block for all cells; face 0 of an odd word is added per cell and
    cancels only at a fixed cell.
    """
    n = module.ncells
    rows = [{} for _ in range(n << (k - 1))]
    moves = list(enumerate(zip(module.perm, module.signs)))
    for w, blocks in enumerate(_bar_faces(k)):
        col = w * n
        for b, sign in blocks:
            for row, j in zip(rows[b * n:b * n + n], range(col, col + n)):
                row[j] = sign
        if w & 1:
            # face 0 of an odd word: g_1 moves e_c to signs[c] * e_perm[c]
            first = (w >> 1) * n
            for c, (t, s) in moves:
                row = rows[first + t]
                x = row.pop(col + c, 0) + s
                if x:
                    row[col + c] = x
    return dict(enumerate(rows)), (len(rows), n << k)


def _check_bar_size(module: InvolutionModule, degree: int) -> None:
    """Refuse a degree or module outside the bar oracle's guards; the
    complex grows like 2^degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > _BAR_MAX_DEGREE or module.ncells > _BAR_MAX_CELLS:
        raise ValueError(
            f"bar oracle guard: degree <= {_BAR_MAX_DEGREE} and cells <= {_BAR_MAX_CELLS}")


def _bar_group(ncells: int, degree: int, diag_in: List[int], diag_out: List[int]) -> FGAbGroup:
    """H_degree from the Smith diagonals of d_degree (empty for degree 0)
    and of d_{degree+1}."""
    rank_in = sum(1 for d in diag_in if d)
    rank_out = sum(1 for d in diag_out if d)
    # im(d_out) sits inside the pure sublattice ker(d_in), so the
    # elementary divisors of d_out are those of the inclusion.
    return FGAbGroup(ncells * (1 << degree) - rank_in - rank_out,
                     tuple(d for d in diag_out if d > 1))


def bar_homology(module: InvolutionModule, degree: int) -> FGAbGroup:
    """H_degree of the order-2 action via the unnormalized bar complex.

    Independent of the orbit counts and the periodic two-term formulas:
    the homology is read off ranks and elementary divisors of the raw
    bar boundaries d_degree and d_{degree+1}.
    """
    _check_bar_size(module, degree)
    diag_in = sparse_snf_diagonal(*_bar_boundary(module, degree)) if degree else []
    diag_out = sparse_snf_diagonal(*_bar_boundary(module, degree + 1))
    return _bar_group(module.ncells, degree, diag_in, diag_out)


def bar_homologies(module: InvolutionModule, top: int) -> List[FGAbGroup]:
    """[bar_homology(module, k) for k in 0..top], with each boundary
    d_1 .. d_{top+1} built and eliminated once."""
    _check_bar_size(module, top)
    groups, diag_in = [], []
    for degree in range(top + 1):
        diag_out = sparse_snf_diagonal(*_bar_boundary(module, degree + 1))
        groups.append(_bar_group(module.ncells, degree, diag_in, diag_out))
        diag_in = diag_out
    return groups


# ---------------------------------------------------------------------------
# The H_0 telescope of the translation subaction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelescopeResult:
    """Stages of H_0(Z, level module) with the flip's verdict on top.

    ``stages[i]`` presents the translation coinvariants at level
    ``i + 1``; ``limit`` is read off the state multipliers of refinement.
    """

    stages: tuple
    limit: LimitDescriptor
    sigma_trivial: bool
    h0: GroupValue

    def stabilized_level(self) -> Optional[int]:
        if self.limit.kind != "stabilized":
            return None
        return self.limit.level


def homology_levels(system, max_level: int) -> list:
    """Levels 1..N as ``(fine, coarse, within, up)``: the flip and
    reflected windows (``level_chain(max_level)``), the inclusion of the
    second in the first, and of the level below's flip window in
    ``fine`` (None at level 1).  Fewer than min(max_level, 3) levels,
    which only an odometer's chain can give, are refused."""
    chain = system.level_chain(max_level)
    if len(chain) < min(max_level, 3):
        raise ValueError(
            f"need at least 3 odometer levels with at most {_MAX_LEVEL_CELLS} cosets")
    ups = [None] + [cover_matrix(a, b) for (a, _), (b, _) in zip(chain, chain[1:])]
    return [(fine, coarse, cover_matrix(coarse, fine), up)
            for (fine, coarse), up in zip(chain, ups)]


def _state_images(state: Matrix, cols: Sequence[dict]) -> List[List[int]]:
    """state * M for the sparse columns of M, as rows like the state's."""
    return [[sum(row[i] * x for i, x in col.items()) for col in cols] for row in state]


def _minus(a: dict, b: dict) -> dict:
    """The sparse column a - b."""
    out = dict(a)
    _axpy(out, b, -1)
    return out


def _det(m: Matrix) -> int:
    """The determinant of a small square matrix, along its first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]))


def _is_onto(state: Matrix) -> bool:
    """Whether the r x n matrix maps Z^n onto Z^r: its r x r minors have
    gcd 1."""
    g = 0
    for cols in combinations(range(len(state[0])), len(state)):
        g = gcd(g, _det([[row[c] for c in cols] for row in state]))
        if g == 1:
            return True
    return False


def _check_state(stage: Presentation, state: Matrix, level: int) -> None:
    """That the length state is an isomorphism from the stage onto Z^r:
    it kills the relations and maps onto Z^r, and the stage is Z^r, so
    it induces a surjection Z^r -> Z^r, which is injective (Hopfian)."""
    if any(any(row) for row in _state_images(state, stage.relations)):
        raise VerificationError(f"the length state of level {level} does not kill its relations")
    if not _is_onto(state):
        raise VerificationError(f"the length state of level {level} is not onto Z^{len(state)}")
    if stage.canonical() != FGAbGroup(len(state)):
        raise VerificationError(
            f"translation H0 stage at level {level} is {stage.canonical()}, not Z^{len(state)}")


def _state_multiplier(fine: Matrix, incl: Sequence[dict], coarse: Matrix, level: int) -> int:
    """The integer c with fine * incl == c * coarse: the connecting map
    from level ``level``, read through the length states of both ends."""
    image = _state_images(fine, incl)
    k, j = next((k, j) for k, row in enumerate(coarse) for j, x in enumerate(row) if x)
    c, rem = divmod(image[k][j], coarse[k][j])
    if rem or image != [[c * x for x in row] for row in coarse]:
        raise VerificationError(
            f"refinement from level {level} to {level + 1} does not scale the length state")
    return c


def h0_translation_telescope(levels: list) -> TelescopeResult:
    """H_0 of the translation action on C(X, Z), with the flip action.

    Stage N presents the functions on level N's flip window modulo
    f - f o (1,0) for f on its reflected window (``level_chain``), the
    widest window whose translate stays inside the flip window.  The
    windows and their inclusions are ``levels``, as
    :func:`homology_levels` builds them, at least three of them.

    Each stage is proved by the length state l_N of its cells
    (``length_state``: a circle cell's exact length a + b*theta as the
    column (a, b), an odometer cylinder's measure in units of 1/n_N).
    Translation keeps lengths, so l_N kills the relations; it maps onto
    Z^r, and the stage's one Smith form is Z^r, so l_N is an isomorphism
    (Hopfian) with kernel L(R_N), the relation lattice.  Refinement keeps
    lengths too: l_{N+1} * incl = c_N * l_N, with c_N = 1 on circles and
    n_{N+1}/n_N on odometers.  That identity alone proves each inclusion
    a map of stages: for a relation r at level N, l_{N+1} * incl * r =
    c_N * l_N * r = 0, so incl * r lies in ker l_{N+1} = L(R_{N+1}).
    Through the states each connecting map is multiplication by c_N,
    and the limit follows from the c_N (``multiplier_limit``): circle
    systems stabilize to Z^2, and odometers give a localization of Z.
    The flip acts trivially on stage N exactly when l_N * P = l_N for
    its permutation P (``pullback_permutation``); then (1 + flip)H_0 =
    2 H_0, which the closed form reads, is isomorphic to ``h0``: the
    limit is torsion-free, 2 Z^r is isomorphic to Z^r, and doubling a
    localization of Z is an isomorphism onto its image.  A state
    identity that fails is a fault in the arithmetic and raises
    ``VerificationError``; a flip that moves the state, or a limit the
    multipliers leave open, raises ``NonStabilizationError``.
    """
    top = len(levels)
    if top < 3:
        raise ValueError("the telescope needs at least 3 levels")
    states = [fine.length_state() for fine, *_ in levels]
    # relation j is within[j] - pullback[j]: f - f o (1,0) on reflected cell j
    stages = [
        Presentation.of(len(fine), map(_minus, within,
                                       pullback_matrix(TRANSLATION, coarse, fine)))
        for fine, coarse, within, _ in levels]
    for level, (stage, state) in enumerate(zip(stages, states), 1):
        _check_state(stage, state, level)
    limit = multiplier_limit(FGAbGroup(len(states[0])), [
        _state_multiplier(fine, up, coarse, level)
        for level, (coarse, fine, (*_, up)) in enumerate(zip(states, states[1:], levels[1:]), 1)])
    # l_N * P = l_N reads l_N at the cell each cell's indicator pulls back to
    sigma_trivial = all(
        [[row[p] for p in pullback_permutation(FLIP, cells)] for row in state] == state
        for state, (cells, *_) in zip(states, levels))

    if limit.kind == "stabilized":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on the translation H0; "
                "the doubled subgroup is not computed at finite level", top)
        h0: GroupValue = limit.group
    elif limit.kind == "localization":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on a localization limit", top)
        h0 = limit.localization
    else:
        raise NonStabilizationError(f"translation H0 undetermined at level {top}", top)

    return TelescopeResult(
        stages=tuple(stages),
        limit=limit,
        sigma_trivial=sigma_trivial,
        h0=h0,
    )


# ---------------------------------------------------------------------------
# Free-product assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeProductFragment:
    """Degree-0/1 homology assembled from the two order-2 subgroups, in
    orbit coordinates."""

    h0: FGAbGroup
    h1: FGAbGroup
    paired_injective: bool
    middle_exact: bool
    h0_presentation: Presentation


def _on_orbits(module: InvolutionModule, cols: Sequence[dict]) -> List[dict]:
    """Q * v for sparse columns v on the module's cells: v summed onto orbits."""
    label = module.orbits[0]
    out = []
    for v in cols:
        w = {}
        for i, x in v.items():
            w[label[i]] = w.get(label[i], 0) + x
        out.append({o: x for o, x in w.items() if x})
    return out


def _orbit_coinvariants(n_orbits: int, mphisigma: InvolutionModule,
                        projected: Sequence[dict]) -> Presentation:
    """The total coinvariants on the sigma-orbits: for each phisigma-pair
    {c, t(c)}, c the lesser cell, the relation Q * incl * (e_t(c) - e_c),
    where ``projected[c]`` is Q * incl * e_c."""
    t = mphisigma.perm
    return Presentation.of(n_orbits, (_minus(projected[t[c]], projected[c])
                                      for c in mphisigma.orbits[1]))


def free_product_fragment(msigma: InvolutionModule, mphisigma: InvolutionModule,
                          inclusion: Sequence[dict]) -> FreeProductFragment:
    """Assemble H_0 and H_1 from permutation modules on matched windows.

    ``inclusion`` embeds the second module's cells into the first
    module's (the first is the finer one), one sparse column per cell of
    the second.  For a permutation module the coinvariants are free on
    the orbits and odd homology is (Z/2)^{fixed cells} (Shapiro's
    lemma), so everything is written on orbits.  H_1 is the direct sum of the two odd homologies.  H_0 is
    the fine module modulo both families of coinvariant relations: on
    the sigma-orbits (projection Q) the sigma relations vanish, and one
    relation per phisigma-pair is left.  The four-term sequence built
    from the pair of coinvariants is checked exactly, from the canonical
    form of one cokernel, C = coker(paired), presented on the
    sigma-orbits and the phisigma-orbits by one column (Q incl e_c,
    -e_[c]) per coarse cell c:

    * ``paired_injective``: the paired map (cor, -cor) from the free
      coarse module has a free kernel, so it is injective when the
      kernel has rank 0.  The middle term is free on the orbits, so the
      test is n_coarse - (#sigma-orbits + #phisigma-orbits) + rank(C) = 0.
    * ``middle_exact``: the summed map (the identity on sigma-orbits,
      Q incl e_r on the phisigma-orbit of its least cell r) sends the
      column of a coarse cell c to 0 when c is least in its orbit, and
      to the H_0 relation of its pair otherwise.  That identity is
      checked column for column, so the summed map induces C -> H_0,
      onto because its first block is the identity.  It is an
      isomorphism, and the sequence exact in the middle, exactly when C
      and H_0 have the same canonical form (finitely generated abelian
      groups are Hopfian).

    Exactness in the middle holds for every inclusion matrix: if
    u + incl(v) = a + incl(b) with a, b coinvariant relations, then
    (u, v) = (a, b) - paired(v - b).  So a false ``middle_exact`` means
    an arithmetic fault, not a property of the system.
    """
    if -1 in msigma.signs or -1 in mphisigma.signs:
        raise ValueError("the free-product fragment takes permutation modules")
    n_coarse = mphisigma.ncells
    if len(inclusion) != n_coarse or any(
            not 0 <= i < msigma.ncells for col in inclusion for i in col):
        raise ValueError("inclusion matrix shape mismatch")

    h1 = FGAbGroup.elementary_two(len(msigma.orbits[2]) + len(mphisigma.orbits[2]))

    label, pairs, fixed = mphisigma.orbits
    reps = pairs + fixed
    projected = _on_orbits(msigma, inclusion)
    n_sigma = sum(map(len, msigma.orbits[1:]))
    h0_pres = _orbit_coinvariants(n_sigma, mphisigma, projected)
    h0 = h0_pres.canonical()

    coker_pres = Presentation.of(n_sigma + len(reps), (
        {**v, n_sigma + label[c]: -1} for c, v in enumerate(projected)))
    coker = coker_pres.canonical()
    paired_injective = n_coarse - n_sigma - len(reps) + coker.rank == 0

    summed = [{o: 1} for o in range(n_sigma)] + [projected[r] for r in reps]
    onto = [{} for _ in range(n_coarse)]
    for k, p in enumerate(pairs):
        onto[mphisigma.perm[p]] = {k: 1}
    middle_exact = (lift_identity(summed, coker_pres.relations, h0_pres.relations, onto)
                    and coker == h0)

    return FreeProductFragment(h0=h0, h1=h1, paired_injective=paired_injective,
                               middle_exact=middle_exact, h0_presentation=h0_pres)


@dataclass(frozen=True)
class FreeProductResult:
    fragments: tuple          # (level, FreeProductFragment)
    h0: GroupValue
    h1: FGAbGroup
    stabilized_at: Optional[int]
    all_injective: bool
    all_exact: bool


def _reflection_modules(fine: list, coarse: list) -> Tuple[InvolutionModule, ...]:
    """The flip's module on a level's flip window and the reflected flip's
    on its reflected window."""
    return tuple(InvolutionModule.from_permutation(pullback_permutation(g, cells))
                 for g, cells in ((FLIP, fine), (GroupElement(1, 1), coarse)))


def _refinement_maps(lower: Tuple[InvolutionModule, InvolutionModule],
                     upper: Tuple[InvolutionModule, InvolutionModule],
                     sym_incl: Sequence[dict], refl_incl: Sequence[dict]) -> tuple:
    """The maps of one refinement step between the (flip, reflected flip)
    modules of two levels, joined by their window inclusions.

    Returns the H_0 map M = Q' sym_incl S, S entering each flip orbit at
    its least cell (sym_incl commutes with the flip, so Q' sym_incl =
    M Q), and its lift W: refinement takes e_t(c) - e_c to the sum of
    e_t'(c') - e_c' over the finer cells c' in c, which is plus or minus
    the relation of the pair of c' (as c' is least in it or not) or 0.
    Then the list of the two odd-homology maps, each a window inclusion
    on fixed cells (pairs vanish in odd homology), read modulo 2.  Every
    map is given by its sparse columns.
    """
    (s, t), (s2, t2) = lower, upper
    h0_map = _on_orbits(s2, [sym_incl[r] for r in s.orbits[1] + s.orbits[2]])
    label, pairs, _ = t2.orbits
    lift = []
    for c in t.orbits[1]:
        w = {}
        for i, x in refl_incl[c].items():
            if label[i] < len(pairs):
                w[label[i]] = w.get(label[i], 0) + (x if i < t2.perm[i] else -x)
        lift.append({k: x for k, x in w.items() if x})
    odd = []
    for m, m2, incl in ((s, s2, sym_incl), (t, t2, refl_incl)):
        where = {i: k for k, i in enumerate(m2.orbits[2])}
        odd.append([{where[i]: x for i, x in incl[j].items() if i in where}
                    for j in m.orbits[2]])
    return h0_map, lift, odd


def _gf2_rank(nrows: int, cols: Sequence[dict]) -> int:
    """The rank over GF(2) of sparse integer columns on ``nrows`` rows:
    Z^nrows modulo the columns and 2 * I is (Z/2)^(nrows - rank)."""
    two = [{j: 2} for j in range(nrows)]
    return nrows - len(Presentation.of(nrows, list(cols) + two).canonical().torsion)


def _odd_limit(sizes: Sequence[int], maps: Sequence[Sequence[dict]]) -> LimitDescriptor:
    """The limit of (Z/2)^sizes[0] -> (Z/2)^sizes[1] -> ... along the
    integer matrices ``maps``, given by their sparse columns, read modulo
    2, by the rule of ``DirectSystem.limit`` on GF(2) ranks.

    A map h_i is an isomorphism when it is square with full rank; the
    maps that are, from the top down, give the limit at the stage below
    the lowest of them.  Otherwise the same rule runs on the system of
    images, whose colimit is the same: im h_i -> im h_{i+1} (induced by
    h_{i+1}) is a bijection when rank(h_{i+1} h_i) = rank h_i =
    rank h_{i+1}.  Classes that die under refinement vanish only there:
    on the ``2^i`` odometer the flip fixes the cells {0, 2^(i-1)}, and
    2^(i-1) has no fixed refinement, so every stage is (Z/2)^2 while the
    limit is Z/2.
    """
    @cache
    def rank(i: int) -> int:
        return _gf2_rank(sizes[i + 1], maps[i])

    def through(i: int) -> int:
        return _gf2_rank(sizes[i + 2], [mat_vec(maps[i + 1], col) for col in maps[i]])

    start = top_run(len(maps), lambda i: sizes[i] == sizes[i + 1] == rank(i))
    if start < len(maps):
        return LimitDescriptor(kind="stabilized", group=FGAbGroup.elementary_two(sizes[start]),
                               level=start + 1)
    if len(maps) >= 3:
        start = top_run(len(maps) - 1, lambda i: rank(i) == rank(i + 1) == through(i))
        if start < len(maps) - 1:
            return LimitDescriptor(kind="stabilized",
                                   group=FGAbGroup.elementary_two(rank(start)), level=start + 2)
    return LimitDescriptor(kind="undetermined", level=len(sizes))


def free_product_homology(levels: list) -> FreeProductResult:
    """Run the free-product assembly across levels and take honest limits.

    At each level from 2 up, the flip permutes the system's flip window
    and the reflected flip its reflected window (for odometers both are
    the level's cylinders), joined by the refinement inclusion.  Degree
    0 is followed through the chain of total coinvariants on flip orbits
    (stabilizing for circles, a localization for odometers); degree 1
    through the chain of odd homologies of each reflection's modules, on
    their fixed cells, whose limits add up to H_1.  ``levels`` is as for
    ``h0_translation_telescope``; this route reads it from level 2 up.
    """
    top = len(levels)
    if top < 4:
        raise ValueError("the free-product assembly starts at level 2, "
                         "so it needs max_level >= 4 (levels 2 to 4)")
    levels = levels[1:]
    modules = [_reflection_modules(fine, coarse) for fine, coarse, *_ in levels]
    frags = [(level, free_product_fragment(*pair, within))
             for level, pair, (*_, within, _) in zip(range(2, top + 1), modules, levels)]
    maps = [_refinement_maps(a, b, up, cover_matrix(ca, cb))
            for a, b, (_, ca, *_), (_, cb, _, up) in zip(modules, modules[1:], levels, levels[1:])]

    h0_stages = tuple(f.h0_presentation for _, f in frags)
    h0_limit = DirectSystem(h0_stages, tuple(
        AbHom.of(a, b, m, w) for a, b, (m, w, _) in zip(h0_stages, h0_stages[1:], maps))).limit()
    if h0_limit.kind == "stabilized":
        h0: GroupValue = h0_limit.group
        stabilized_at: Optional[int] = h0_limit.level + 1
    elif h0_limit.kind == "localization":
        h0 = h0_limit.localization
        stabilized_at = None
    else:
        raise NonStabilizationError(
            f"free-product H0 still moving at level {top}", top)

    # one limit (Z/2)^k per reflection, of its odd homologies; H_1 = (Z/2)^(k0 + k1)
    twos = 0
    for k in (0, 1):
        limit = _odd_limit([len(pair[k].orbits[2]) for pair in modules], [m[2][k] for m in maps])
        if limit.kind != "stabilized":
            raise NonStabilizationError(
                f"free-product H1 still moving at level {top}", top)
        twos += len(limit.group.torsion)

    return FreeProductResult(
        fragments=tuple(frags),
        h0=h0,
        h1=FGAbGroup.elementary_two(twos),
        stabilized_at=stabilized_at,
        all_injective=all(f.paired_injective for _, f in frags),
        all_exact=all(f.middle_exact for _, f in frags),
    )


# ---------------------------------------------------------------------------
# Closed-form case analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyTable:
    """Homology in degrees 0..5 plus the eventual period-2 tail."""

    degrees: tuple
    tail_odd: GroupValue
    tail_even: GroupValue
    tail_from: int

    def entry(self, n: int) -> GroupValue:
        if n < 0:
            raise ValueError("degree must be >= 0")
        if n < len(self.degrees):
            return self.degrees[n]
        if n < self.tail_from:
            raise ValueError("degree below the tail rule but not stored")
        return self.tail_odd if n % 2 else self.tail_even

    def to_json(self) -> dict:
        out = {f"H{i}": g.to_json() for i, g in enumerate(self.degrees)}
        out["tail"] = {
            "odd": self.tail_odd.to_json(),
            "even": self.tail_even.to_json(),
            "from": self.tail_from,
        }
        return out


_ZERO = FGAbGroup(0)


def _table(h0: GroupValue, odd: GroupValue, even: GroupValue, tail_from: int,
           h1: Optional[GroupValue] = None) -> HomologyTable:
    degs = [h0]
    for n in range(1, 6):
        if n == 1 and h1 is not None:
            degs.append(h1)
        elif n % 2:
            degs.append(odd)
        else:
            degs.append(even)
    return HomologyTable(tuple(degs), tail_odd=odd, tail_even=even, tail_from=tail_from)


def split_orbit_table(h0_base: GroupValue) -> HomologyTable:
    """The case of a non-minimal translation: the space splits into two
    flip-exchanged halves and homology reduces to the half."""
    return _table(h0_base, _ZERO, _ZERO, tail_from=2, h1=FGAbGroup(1))


def nonfree_action_table(h0: GroupValue, fixed_count: int) -> HomologyTable:
    """The non-free case: odd degrees carry one order-2 class per fixed
    point of the two reflections."""
    if fixed_count < 1:
        raise ValueError("the non-free case requires at least one fixed point")
    return _table(h0, FGAbGroup.elementary_two(fixed_count), _ZERO, tail_from=1)


def homology_table(system, max_level: int = 16, method: str = "closed_form"):
    """The homology table of a system plus a provenance report.

    ``method`` chooses the closed-form case analysis, the level-by-level
    free-product assembly, or both (in which case their shared degrees
    must agree and the delta is reported).
    """
    if method not in ("closed_form", "freeproduct", "both"):
        raise ValueError("method must be closed_form, freeproduct or both")

    provenance = {"system": system.to_json(), "maxLevel": max_level, "method": method}

    if isinstance(system, DoubledSystem):
        if method != "closed_form":
            raise ValueError("the free-product assembly needs both reflections "
                             "acting on one space; not available for the split case")
        tele = h0_translation_telescope(homology_levels(system.base, max_level))
        provenance.update({
            "case": "translation_not_minimal",
            "h0_base": tele.h0.to_json(),
            "stabilizedAt": tele.stabilized_level(),
        })
        return split_orbit_table(tele.h0), provenance

    # a chain too short or too wide for three levels is refused before the
    # fixed points are counted; both routes read this one level list, the
    # telescope levels 1..N and the free product 2..N
    levels = homology_levels(system, max_level)
    fixed_name, fixed, fixed_count = system.reflection_fixed(max_level)
    tele = h0_translation_telescope(levels)
    provenance.update({
        "case": "not_free",
        fixed_name: fixed,
        "sigmaTrivialOnH0": tele.sigma_trivial,
    })
    if tele.limit.kind == "stabilized":
        provenance["stabilizedAt"] = tele.stabilized_level()
    else:
        provenance["limit"] = tele.limit.to_json()
    closed = nonfree_action_table(tele.h0, fixed_count)
    if method == "closed_form":
        return closed, provenance
    fp = free_product_homology(levels)
    provenance["freeproduct"] = {
        "stabilizedAt": fp.stabilized_at,
        "pairedInjective": fp.all_injective,
        "middleExact": fp.all_exact,
    }
    if method == "freeproduct":
        return _table(fp.h0, fp.h1, _ZERO, tail_from=1), provenance
    delta = {}
    # a localization H0 is named by its multipliers, which the two routes
    # need not share, so only a finitely generated H0 is compared
    for degree, got in ((0, fp.h0), (1, fp.h1)):
        want = closed.entry(degree)
        if isinstance(want, FGAbGroup) and got != want:
            delta[f"H{degree}"] = {"closed": want.to_json(), "freeproduct": got.to_json()}
    provenance["delta"] = delta
    return closed, provenance
