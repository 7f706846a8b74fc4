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
with one relation per pair of the reflected flip, and odd homology on
fixed cells with relations 2 * I.  The order-2 homology of one module
(``odd_homology``, ``even_homology``, ``coinvariants``) is the same orbit
count for a permutation module, (Z/2)^{fixed}, 0 and Z^{orbits}, and the
kernel/image formulas of its matrix for a signed one.  An unnormalized
bar complex cross-checks both (``bar_homologies`` eliminates each of its
boundaries once for all degrees up to a top one).

Circle systems and odometers take one path through every level
computation.  The system names the cell lists that stand for level N
and their relation window (``level_windows``: a circle's windows
[-N, N] and [1-N, N], an odometer's cylinders for both), how deep its
levels go (``depth``) and how its reflections' fixed points are counted
(``reflection_fixed``).  The telescope and the free product read the same
windows: the first as the cells of a stage and the window of its
translation relations, the second as the windows of the two
reflections.  ``homology_table`` builds them once, as the system's
``level_chain``, and hands the chain to both routes.  Refinement between
levels is ``cover_matrix`` of a coarser level's cells in a finer
level's, for arcs and cylinders alike.

The telescope is proved through the length state l_N of each level
(Putnam-Schmidt-Skau): a circle cell's exact length a + b*theta, or an
odometer cylinder's measure in units of 1/n_N.  The state kills the
translation relations and maps onto Z^r, so with the stage's one Smith
form equal to Z^r it identifies the stage with Z^r; each connecting map
is then multiplication by the integer c_N with l_{N+1} * incl = c_N * l_N,
and the flip P acts trivially on stage N exactly when l_N * P = l_N.
Each is an integer identity (see ``h0_translation_telescope``).

Every refinement map between stages is proved a map of presented groups
by an exact identity M * R = R' * W (``abgroups.lift_identity``), with a
lift W the construction supplies: refinement commutes with translation
and with both reflections, so a relation built on coarse cells refines
to the sum of the same relations on the finer cells.  The lifts are the
refinement of the telescope's relation windows; for the free-product
H_0, the reflected window's refinement taken onto the pairs of the
reflected flip (``_refinement_maps``); and for the odd homologies, the
map itself, the inclusion restricted to fixed cells.  The telescope
reads its limit off the state multipliers (``multiplier_limit``), and
the free product's H_0 through ``DirectSystem.limit``, as an
independent second route; only the odd-homology limits take the system
of images (``_image_refined_limit``), whose maps have no lift and are
proved by relation membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
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
    columns,
    from_columns,
    identity_matrix,
    kernel_basis,  # unused here; bench/layertrace.py traces it under this module's name
    lift_identity,
    mat_mul,
    mat_sub,
    multiplier_limit,
    snf_diagonal,
    subquotient,
)
from .errors import NonStabilizationError, VerificationError
from .systems import (
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
    "h0_translation_telescope",
    "free_product_fragment",
    "free_product_homology",
    "transfer_kernel",
    "transfer_report",
    "HomologyTable",
    "homology_table",
    "split_orbit_table",
    "free_action_table",
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

    ``matrix`` records f -> f o a on the cell basis.  A permutation
    module (every system level module is one) is kept as ``perm``: column
    j of its matrix is the unit vector of cell perm[j], and the matrix is
    written out only when it is read.  Any other module keeps its rows.
    """

    perm: Optional[tuple]
    rows: Optional[tuple] = None

    @classmethod
    def of(cls, matrix: Matrix) -> "InvolutionModule":
        mat = tuple(tuple(map(int, row)) for row in matrix)
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise ValueError("involution matrix must be square")
        sq = mat_mul([list(r) for r in mat], [list(r) for r in mat])
        if sq != identity_matrix(n):
            raise ValueError("matrix must be an involution (A*A = I)")
        cols = list(zip(*mat))
        if all(col.count(1) == 1 and col.count(0) == n - 1 for col in cols):
            return cls(tuple(col.index(1) for col in cols))
        return cls(None, mat)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "InvolutionModule":
        """The module of an involutive permutation of range(n), checked in O(n)."""
        p = tuple(map(int, perm))
        if not all(0 <= i < len(p) and p[i] == j for j, i in enumerate(p)):
            raise ValueError("perm must be a permutation of range(n) with perm[perm[i]] == i")
        return cls(p)

    @property
    def ncells(self) -> int:
        return len(self.perm if self.perm is not None else self.rows)

    @cached_property
    def matrix(self) -> tuple:
        if self.perm is None:
            return self.rows
        return tuple(tuple(int(i == p) for p in self.perm) for i in range(len(self.perm)))

    def mat(self) -> Matrix:
        return [list(r) for r in self.matrix]

    @cached_property
    def orbits(self) -> Tuple[List[int], List[int], List[int]]:
        """For a permutation module: the orbit of each cell, then the least
        cell of each 2-cycle and the fixed cells, in order; the orbits are
        numbered in that order, the pairs first."""
        pairs = [i for i, j in enumerate(self.perm) if i < j]
        fixed = [i for i, j in enumerate(self.perm) if i == j]
        label = [0] * len(self.perm)
        for k, i in enumerate(pairs + fixed):
            label[i] = label[self.perm[i]] = k
        return label, pairs, fixed


def _shifted(module: InvolutionModule, c: int) -> Matrix:
    """A + c * I for the module's matrix A."""
    return [[x + c if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(module.matrix)]


def odd_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A - I) / im(A + I): the odd-degree homology of the order-2
    action; (Z/2)^{fixed cells} for a permutation module."""
    if module.perm is not None:
        return FGAbGroup.elementary_two(len(module.orbits[2]))
    return subquotient(_shifted(module, -1), _shifted(module, 1))


def even_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A + I) / im(A - I): the positive even-degree homology; 0 for a
    permutation module."""
    if module.perm is not None:
        return FGAbGroup(0)
    return subquotient(_shifted(module, 1), _shifted(module, -1))


def coinvariants(module: InvolutionModule) -> FGAbGroup:
    """coker(A - I), the degree-0 homology of the order-2 action; free on
    the orbits for a permutation module."""
    if module.perm is not None:
        _, pairs, fixed = module.orbits
        return FGAbGroup.free(len(pairs) + len(fixed))
    return Presentation.of(module.ncells, columns(_shifted(module, -1))).canonical()


# ---------------------------------------------------------------------------
# Bar-complex oracle
# ---------------------------------------------------------------------------

_BAR_MAX_DEGREE = 6
_BAR_MAX_CELLS = 8


def _bar_boundary(module: InvolutionModule, k: int) -> Matrix:
    """Boundary C_k -> C_{k-1} of M tensored over the group ring with the
    unnormalized bar resolution of the 2-element group.

    C_k is free on (cell, word) with word a k-bit mask (bit = the
    involution, 0 = identity); the first face acts on the module side.
    """
    n = module.ncells
    if k == 0:
        return []
    rows = n * (1 << (k - 1))
    cols = n * (1 << k)
    mat = [[0] * cols for _ in range(rows)]
    a = module.matrix
    for w in range(1 << k):
        for c in range(n):
            col = w * n + c
            # face 0: move g_1 onto the coefficient
            w_rest = w >> 1
            if w & 1:
                for cp in range(n):
                    if a[cp][c]:
                        mat[w_rest * n + cp][col] += a[cp][c]
            else:
                mat[w_rest * n + c][col] += 1
            # middle faces: merge adjacent letters
            sign = 1
            for i in range(1, k):
                sign = -sign
                low = w & ((1 << (i - 1)) - 1)
                merged = ((w >> (i - 1)) ^ (w >> i)) & 1
                high = (w >> (i + 1)) << i
                w_mid = low | (merged << (i - 1)) | high
                mat[w_mid * n + c][col] += sign
            # last face: drop g_k
            sign = -sign
            w_last = w & ((1 << (k - 1)) - 1)
            mat[w_last * n + c][col] += sign
    return mat


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
    d_in = _bar_boundary(module, degree)
    diag_in = snf_diagonal(d_in) if d_in else []
    diag_out = snf_diagonal(_bar_boundary(module, degree + 1))
    return _bar_group(module.ncells, degree, diag_in, diag_out)


def bar_homologies(module: InvolutionModule, top: int) -> List[FGAbGroup]:
    """[bar_homology(module, k) for k in 0..top], with each boundary
    d_1 .. d_{top+1} built and eliminated once."""
    _check_bar_size(module, top)
    groups, diag_in = [], []
    for degree in range(top + 1):
        diag_out = snf_diagonal(_bar_boundary(module, degree + 1))
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
    ``i + 1``; connecting maps are induced by refinement.
    """

    stages: tuple
    connecting: tuple
    limit: LimitDescriptor
    sigma_trivial: bool
    h0: GroupValue
    h0_plus: GroupValue

    def stabilized_level(self) -> Optional[int]:
        if self.limit.kind != "stabilized":
            return None
        return self.limit.level


#: The ceiling on the cells of one level; only an odometer's levels reach it.
_MAX_LEVEL_CELLS = 512


def _require_levels(system, message: str) -> None:
    """Reject a system that has no level windows (circle and odometer
    systems have them)."""
    if not hasattr(system, "level_chain"):
        raise ValueError(message)


def _deepest_level(system, max_level: int) -> int:
    """Deepest usable level: within the request and the system's depth.

    Only an odometer's depth falls short of a request, where its chain
    ends or its levels pass ``_MAX_LEVEL_CELLS`` cosets.
    """
    top = system.depth(max_level, _MAX_LEVEL_CELLS)
    if top < min(max_level, 3):
        raise ValueError(
            f"need at least 3 odometer levels with at most {_MAX_LEVEL_CELLS} cosets")
    return top


def _state_images(state: Matrix, vectors) -> List[List[int]]:
    """state * v for each vector v, summed over the nonzeros of v."""
    images = []
    for v in vectors:
        nonzero = list(compress(range(len(v)), v))
        images.append([sum(row[i] * v[i] for i in nonzero) for row in state])
    return images


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
    if any(any(w) for w in _state_images(state, stage.relations)):
        raise VerificationError(f"the length state of level {level} does not kill its relations")
    if not _is_onto(state):
        raise VerificationError(f"the length state of level {level} is not onto Z^{len(state)}")
    if stage.canonical() != FGAbGroup(len(state)):
        raise VerificationError(
            f"translation H0 stage at level {level} is {stage.canonical()}, not Z^{len(state)}")


def _state_multiplier(fine: Matrix, incl: Matrix, coarse: Matrix, level: int) -> int:
    """The integer c with fine * incl == c * coarse: the connecting map
    from level ``level``, read through the length states of both ends."""
    image, want = _state_images(fine, zip(*incl)), columns(coarse)
    j, k = next((j, k) for j, col in enumerate(want) for k, x in enumerate(col) if x)
    c, rem = divmod(image[j][k], want[j][k])
    if rem or image != [[c * x for x in col] for col in want]:
        raise VerificationError(
            f"refinement from level {level} to {level + 1} does not scale the length state")
    return c


def h0_translation_telescope(system, max_level: int,
                             chain: Optional[list] = None) -> TelescopeResult:
    """H_0 of the translation action on C(X, Z), with the flip action.

    Stage N presents the functions on level N's flip window modulo
    f - f o (1,0) for f on its reflected window (``level_windows``), the
    widest window whose translate stays inside the flip window.  The
    windows are ``chain``, the system's ``level_chain`` up to the deepest
    usable level, built here unless the caller holds it already.

    Each stage is proved by the length state l_N of its cells
    (``length_state``: a circle cell's exact length a + b*theta as the
    column (a, b), an odometer cylinder's measure in units of 1/n_N).
    Translation keeps lengths, so l_N kills the relations; it maps onto
    Z^r, and the stage's one Smith form is Z^r, so l_N is an isomorphism
    (Hopfian).  Refinement keeps lengths too: l_{N+1} * incl = c_N * l_N
    with c_N = 1 on circles and n_{N+1}/n_N on odometers, so through the
    states each connecting map is multiplication by c_N.  The limit
    follows from the c_N (``multiplier_limit``): circle systems stabilize
    to Z^2, and odometers give a localization of Z.  The flip acts
    trivially on stage N exactly when l_N * P = l_N for its permutation
    P; (1 + flip)H_0 = 2 H_0 is then returned in canonical form (doubling
    a localization of Z is an isomorphism onto its image).  A state
    identity that fails is a fault in the arithmetic and raises
    ``VerificationError``; a flip that moves the state, or a limit the
    multipliers leave open, raises ``NonStabilizationError``.
    """
    if max_level < 3:
        raise ValueError("max_level must be >= 3")
    _require_levels(system, "telescope requires a circle or odometer system")
    if chain is None:
        chain = system.level_chain(_deepest_level(system, max_level))
    top = len(chain)
    cell_lists = [fine for fine, _ in chain]
    states = [fine.length_state() for fine in cell_lists]
    stages = [
        Presentation.of(len(fine), columns(mat_sub(
            cover_matrix(coarse, fine), pullback_matrix(system, TRANSLATION, coarse, fine))))
        for fine, coarse in chain]
    for level, (stage, state) in enumerate(zip(stages, states), 1):
        _check_state(stage, state, level)
    # refinement commutes with translation, so the refinement of the
    # reflected windows lifts each inclusion (see the module docstring);
    # an odometer's two windows are one list, whose inclusion is its own lift
    incls = [cover_matrix(a, b) for a, b in zip(cell_lists, cell_lists[1:])]
    connecting = tuple(
        AbHom.of(a, b, m, m if ca is fa else cover_matrix(ca, cb))
        for a, b, m, (fa, ca), (_, cb) in zip(stages, stages[1:], incls, chain, chain[1:]))
    limit = multiplier_limit(FGAbGroup(len(states[0])), [
        _state_multiplier(fine, m, coarse, level)
        for level, (m, coarse, fine) in enumerate(zip(incls, states, states[1:]), 1)])
    sigma_trivial = all(
        _state_images(state, zip(*pullback_matrix(system, FLIP, cells, cells))) == columns(state)
        for state, cells in zip(states, cell_lists))

    if limit.kind == "stabilized":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on the translation H0; "
                "the doubled subgroup is not computed at finite level", top)
        h0: GroupValue = limit.group
        h0_plus: GroupValue = _doubled_subgroup(h0)
    elif limit.kind == "localization":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on a localization limit", top)
        h0 = h0_plus = limit.localization
    else:
        raise NonStabilizationError(f"translation H0 undetermined at level {top}", top)

    return TelescopeResult(
        stages=tuple(stages),
        connecting=connecting,
        limit=limit,
        sigma_trivial=sigma_trivial,
        h0=h0,
        h0_plus=h0_plus,
    )


def _doubled_subgroup(g: FGAbGroup) -> FGAbGroup:
    """The image of multiplication by 2 on a group in canonical form."""
    torsion = []
    for d in g.torsion:
        dd = d // 2 if d % 2 == 0 else d
        if dd > 1:
            torsion.append(dd)
    return FGAbGroup(g.rank, tuple(torsion))


# ---------------------------------------------------------------------------
# Free-product assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeProductFragment:
    """Degree-0/1 homology assembled from the two order-2 subgroups, in
    orbit coordinates; ``odd_stages`` presents the two odd homologies
    that make up ``h1``, each on its module's fixed cells."""

    h0: FGAbGroup
    h1: FGAbGroup
    paired_injective: bool
    middle_exact: bool
    h0_presentation: Presentation
    odd_stages: Tuple[Presentation, Presentation]


def _on_orbits(module: InvolutionModule, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
    """Q * v for vectors v on the module's cells: v summed onto orbits."""
    label, pairs, fixed = module.orbits
    out = []
    for v in vectors:
        w = [0] * (len(pairs) + len(fixed))
        for i in compress(range(len(v)), v):
            w[label[i]] += v[i]
        out.append(w)
    return out


def _orbit_coinvariants(n_orbits: int, mphisigma: InvolutionModule,
                        projected: Sequence[Sequence[int]]) -> Presentation:
    """The total coinvariants on the sigma-orbits: for each phisigma-pair
    {c, t(c)}, c the lesser cell, the relation Q * incl * (e_t(c) - e_c),
    where ``projected[c]`` is Q * incl * e_c."""
    t = mphisigma.perm
    return Presentation.of(n_orbits, ([a - b for a, b in zip(projected[t[c]], projected[c])]
                                      for c in mphisigma.orbits[1]))


def free_product_fragment(msigma: InvolutionModule, mphisigma: InvolutionModule,
                          inclusion: Matrix) -> FreeProductFragment:
    """Assemble H_0 and H_1 from permutation modules on matched windows.

    ``inclusion`` embeds the second module's cells into the first
    module's (the first is the finer one).  For a permutation module the
    coinvariants are free on the orbits and odd homology is
    (Z/2)^{fixed cells} (Shapiro's lemma), so everything is written on
    orbits.  H_1 is the direct sum of the two odd homologies.  H_0 is
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
    if msigma.perm is None or mphisigma.perm is None:
        raise ValueError("the free-product fragment takes permutation modules")
    n_coarse = mphisigma.ncells
    if len(inclusion) != msigma.ncells or (inclusion and len(inclusion[0]) != n_coarse):
        raise ValueError("inclusion matrix shape mismatch")

    odd_stages = tuple(Presentation.of(len(f), [[2 * (i == j) for i in f] for j in f])
                       for f in (msigma.orbits[2], mphisigma.orbits[2]))
    h1 = odd_stages[0].canonical().direct_sum(odd_stages[1].canonical())

    label, pairs, fixed = mphisigma.orbits
    reps = pairs + fixed
    projected = _on_orbits(msigma, columns(inclusion))
    n_sigma = sum(map(len, msigma.orbits[1:]))
    h0_pres = _orbit_coinvariants(n_sigma, mphisigma, projected)
    h0 = h0_pres.canonical()

    coker_pres = Presentation.of(n_sigma + len(reps), (
        v + [-(label[c] == k) for k in range(len(reps))] for c, v in enumerate(projected)))
    coker = coker_pres.canonical()
    paired_injective = n_coarse - n_sigma - len(reps) + coker.rank == 0

    summed = [e + [projected[r][o] for r in reps] for o, e in enumerate(identity_matrix(n_sigma))]
    onto = [[int(c == mphisigma.perm[p]) for c in range(n_coarse)] for p in pairs]
    middle_exact = (lift_identity(summed, coker_pres.relations, h0_pres.relations, onto)
                    and coker == h0)

    return FreeProductFragment(h0=h0, h1=h1, paired_injective=paired_injective,
                               middle_exact=middle_exact, h0_presentation=h0_pres,
                               odd_stages=odd_stages)


@dataclass(frozen=True)
class FreeProductResult:
    fragments: tuple          # (level, FreeProductFragment)
    h0: GroupValue
    h1: FGAbGroup
    stabilized_at: Optional[int]
    all_injective: bool
    all_exact: bool


def _reflection_modules(system, fine: list, coarse: list) -> Tuple[InvolutionModule, ...]:
    """The flip's module on a level's flip window and the reflected flip's
    on its reflected window."""
    return tuple(InvolutionModule.from_permutation(pullback_permutation(system, g, cells))
                 for g, cells in ((FLIP, fine), (GroupElement(1, 1), coarse)))


def _refinement_maps(lower: Tuple[InvolutionModule, InvolutionModule],
                     upper: Tuple[InvolutionModule, InvolutionModule],
                     sym_incl: Matrix, refl_incl: Matrix) -> Tuple[Matrix, Matrix, List[Matrix]]:
    """The maps of one refinement step between the (flip, reflected flip)
    modules of two levels, joined by their window inclusions.

    Returns the H_0 map M = Q' sym_incl S, S entering each flip orbit at
    its least cell (sym_incl commutes with the flip, so Q' sym_incl =
    M Q), and its lift W: refinement takes e_t(c) - e_c to the sum of
    e_t'(c') - e_c' over the finer cells c' in c, which is plus or minus
    the relation of the pair of c' (as c' is least in it or not) or 0.
    Then the list of the two odd-homology maps, each a window inclusion
    on fixed cells (pairs vanish in odd homology) and its own lift.
    """
    (s, t), (s2, t2) = lower, upper
    sym, refl = columns(sym_incl), columns(refl_incl)
    h0_map = from_columns(_on_orbits(s2, [sym[r] for r in s.orbits[1] + s.orbits[2]]),
                          rows=len(s2.orbits[1]) + len(s2.orbits[2]))
    label, pairs, _ = t2.orbits
    lift = []
    for c in t.orbits[1]:
        w = [0] * len(pairs)
        for i in compress(range(len(refl[c])), refl[c]):
            if label[i] < len(pairs):
                w[label[i]] += refl[c][i] if i < t2.perm[i] else -refl[c][i]
        lift.append(w)
    odd = [[[incl[i][j] for j in m.orbits[2]] for i in m2.orbits[2]]
           for m, m2, incl in ((s, s2, sym_incl), (t, t2, refl_incl))]
    return h0_map, from_columns(lift, rows=len(pairs)), odd


def _image_refined_limit(ds: DirectSystem):
    """limit(), retried on the system of images when undetermined.

    The colimit of a direct system equals the colimit of the images of
    its connecting maps, and classes that die under refinement only
    vanish in the image system.  The odd-homology limits need it: on the
    ``2^i`` odometer the flip fixes the cells {0, 2^(i-1)}, and
    2^(i-1) has no fixed refinement, so every stage is (Z/2)^2 while the
    limit is Z/2.
    """
    lim = ds.limit()
    if lim.kind != "undetermined" or len(ds.maps) < 3:
        return lim
    im_stages = tuple(h.image_presentation() for h in ds.maps)
    im_homs = tuple(
        AbHom.of(im_stages[i], im_stages[i + 1], ds.maps[i].mat())
        for i in range(len(im_stages) - 1))
    lim2 = DirectSystem(im_stages, im_homs).limit()
    if lim2.kind == "stabilized":
        return LimitDescriptor(kind="stabilized", group=lim2.group, level=lim2.level + 1)
    return lim


def free_product_homology(system, max_level: int,
                          chain: Optional[list] = None) -> FreeProductResult:
    """Run the free-product assembly across levels and take honest limits.

    At each level from 2 up, the flip permutes the system's flip window
    and the reflected flip its reflected window (for odometers both are
    the level's cylinders), joined by the refinement inclusion.  Degree
    0 is followed through the chain of total coinvariants on flip orbits
    (stabilizing for circles, a localization for odometers); degree 1
    through the chain of odd homologies of each reflection's modules, on
    their fixed cells, whose limits add up to H_1.  ``chain`` is as for
    ``h0_translation_telescope``, whose windows from level 2 up are these.
    """
    _require_levels(system, "free-product assembly requires a circle or odometer system")
    if chain is None:
        chain = system.level_chain(_deepest_level(system, max_level))
    windows = chain[1:]
    if len(windows) < 3:
        raise ValueError("the free-product assembly starts at level 2, "
                         "so it needs max_level >= 4 (levels 2 to 4)")
    max_level = len(windows) + 1
    levels = list(range(2, max_level + 1))
    modules = [_reflection_modules(system, fine, coarse) for fine, coarse in windows]
    frags = [(level, free_product_fragment(*pair, cover_matrix(coarse, fine)))
             for level, pair, (fine, coarse) in zip(levels, modules, windows)]
    maps = [_refinement_maps(a, b, cover_matrix(fa, fb), cover_matrix(ca, cb))
            for a, b, (fa, ca), (fb, cb) in zip(modules, modules[1:], windows, windows[1:])]

    h0_stages = tuple(f.h0_presentation for _, f in frags)
    h0_limit = DirectSystem(h0_stages, tuple(
        AbHom.of(a, b, m, w) for a, b, (m, w, _) in zip(h0_stages, h0_stages[1:], maps))).limit()
    if h0_limit.kind == "stabilized":
        h0: GroupValue = h0_limit.group
        stabilized_at: Optional[int] = levels[h0_limit.level - 1]
    elif h0_limit.kind == "localization":
        h0 = h0_limit.localization
        stabilized_at = None
    else:
        raise NonStabilizationError(
            f"free-product H0 still moving at level {max_level}", max_level)

    # one limit per reflection; an odd-homology map is its own lift
    h1 = FGAbGroup(0)
    for k in (0, 1):
        stages = tuple(f.odd_stages[k] for _, f in frags)
        limit = _image_refined_limit(DirectSystem(stages, tuple(
            AbHom.of(a, b, m[2][k], m[2][k]) for a, b, m in zip(stages, stages[1:], maps))))
        if limit.kind != "stabilized":
            raise NonStabilizationError(
                f"free-product H1 still moving at level {max_level}", max_level)
        h1 = h1.direct_sum(limit.group)

    return FreeProductResult(
        fragments=tuple(frags),
        h0=h0,
        h1=h1,
        stabilized_at=stabilized_at,
        all_injective=all(f.paired_injective for _, f in frags),
        all_exact=all(f.middle_exact for _, f in frags),
    )


# ---------------------------------------------------------------------------
# Transfer map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    kernel: FGAbGroup
    injective: bool
    image: FGAbGroup
    target_plus: FGAbGroup
    onto_plus: bool


def transfer_kernel(h0_gamma: Presentation, tr_map: AbHom,
                    target_plus: FGAbGroup) -> TransferReport:
    """Kernel and image of the summed-over-flip map out of the total
    coinvariants, compared against the doubled translation classes."""
    if tr_map.src != h0_gamma:
        raise ValueError("transfer map must start at the given presentation")
    kernel = tr_map.kernel_group()
    image = tr_map.image_group()
    return TransferReport(
        kernel=kernel,
        injective=kernel.is_trivial(),
        image=image,
        target_plus=target_plus,
        onto_plus=image == target_plus,
    )


def transfer_report(system, max_level: int) -> TransferReport:
    """The transfer, evaluated at the top level of the telescope.

    On the circle system the flip has a fixed point, so the kernel must
    vanish and the image must realize the doubled translation classes.
    """
    tele = h0_translation_telescope(system, max_level)
    level = len(tele.stages)
    cells, coarse = system.level_windows(level)
    msig, mphisig = _reflection_modules(system, cells, coarse)
    h0_gamma = free_product_fragment(msig, mphisig, cover_matrix(coarse, cells)).h0_presentation

    # into the telescope stage of the same level by f -> f + f o flip: an
    # orbit to its indicator, a fixed cell to twice its own
    label = msig.orbits[0]
    tr_matrix = [[(label[i] == o) * (1 + (msig.perm[i] == i)) for o in range(h0_gamma.ngens)]
                 for i in range(len(cells))]
    tr_map = AbHom.of(h0_gamma, tele.stages[level - 1], tr_matrix)
    return transfer_kernel(h0_gamma, tr_map, tele.h0_plus)


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


def free_action_table(h0_plus: GroupValue) -> HomologyTable:
    """The free case: degree 0 gains a single order-2 class, higher
    degrees vanish."""
    if isinstance(h0_plus, FGAbGroup):
        h0 = FGAbGroup(0, (2,)).direct_sum(h0_plus)
    else:
        raise ValueError("free case with a localization H0 is not representable "
                         "as one canonical group; keep the summands separate")
    return _table(h0, _ZERO, _ZERO, tail_from=1)


def nonfree_action_table(h0_plus: GroupValue, fixed_count: int) -> HomologyTable:
    """The non-free case: odd degrees carry one order-2 class per fixed
    point of the two reflections."""
    if fixed_count < 1:
        raise ValueError("the non-free case requires at least one fixed point")
    return _table(h0_plus, FGAbGroup.elementary_two(fixed_count), _ZERO, tail_from=1)


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
        tele = h0_translation_telescope(system.base, max_level)
        provenance.update({
            "case": "translation_not_minimal",
            "h0_base": tele.h0.to_json(),
            "stabilizedAt": tele.stabilized_level(),
        })
        return split_orbit_table(tele.h0), provenance

    _require_levels(system, f"unsupported system: {system!r}")
    # a chain too short or too wide for three levels is refused up front,
    # before the telescope sees its depth as the request
    top = _deepest_level(system, max_level)
    depth = system.depth(max_level)
    fixed_name, fixed, fixed_count = system.reflection_fixed(depth)
    # one chain of windows for both routes: the telescope reads levels
    # 1..top, the free product levels 2..top
    chain = system.level_chain(top)
    tele = h0_translation_telescope(system, depth, chain)
    provenance.update({
        "case": "not_free",
        fixed_name: fixed,
        "sigmaTrivialOnH0": tele.sigma_trivial,
    })
    if tele.limit.kind == "stabilized":
        provenance["stabilizedAt"] = tele.stabilized_level()
    else:
        provenance["limit"] = tele.limit.to_json()
    closed = nonfree_action_table(tele.h0_plus, fixed_count)
    if method == "closed_form":
        return closed, provenance
    fp = free_product_homology(system, depth, chain)
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
