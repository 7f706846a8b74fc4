"""Group homology of the dihedral systems, with an independent oracle.

The coefficient module is the group C(X, Z) of integer continuous
functions, presented through its finite level modules.  Homology of the
order-2 subgroups is computed from the kernel/image formulas attached
to an involution matrix; the homology of the whole group is assembled
either from the closed-form case analysis (driven by exact fixed-point
evidence) or from the free-product exact sequence evaluated level by
level, and the two must agree.  The assembly's H_1 is the direct sum of
two limits: the flip's odd homologies along the flip windows and the
reflected flip's along the reflected windows.  An unnormalized
bar-complex computation serves as a brute-force cross-check for the
involution formulas.

Circle systems and odometers take one path through every level
computation.  The system names the cell lists that stand for level N
(``level_windows``: a circle's windows [-N, N] and [1-N, N], an
odometer's cylinders for both reflections), the level a stage's
translation relations start from (``relation_lag``), how deep its levels
go (``depth``), how its reflections' fixed points are counted
(``reflection_fixed``) and which sets generate its translation H_0
(``h0_generators``).  Refinement between levels is ``cover_matrix``
of a coarser level's cells in a finer level's, for arcs and cylinders
alike; each computation builds each cell list once.

The flip P acts trivially on the translation H_0, and incl * P is then
a map of presented groups, when every column of incl * (P - I) is a
relation of the next stage (see ``h0_translation_telescope``).

Every refinement map between stages is proved a map of presented groups
by an exact identity M * R = R' * W (``abgroups.lift_identity``), with a
lift W the construction supplies: refinement commutes with translation
and with both reflections, so a relation built on coarse cells refines
to the sum of the same relations on the finer cells.  The lifts are the
refinement of the telescope's relation windows, the block diagonal of
the two window refinements for the free-product H_0, and the inclusion
itself for the odd homologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    KernelQuotient,
    LimitDescriptor,
    LocalizationDescriptor,
    Matrix,
    Presentation,
    columns,
    from_columns,
    identity_matrix,
    kernel_basis,  # unused here; bench/layertrace.py traces it under this module's name
    lattice_subset,
    lift_identity,
    mat_add,
    mat_mul,
    mat_sub,
    snf_diagonal,
    subquotient,
)
from .errors import NonStabilizationError
from .systems import (
    FLIP,
    TRANSLATION,
    DoubledSystem,
    GroupElement,
    cover_indices,
    cover_matrix,
    pullback_matrix,
)

__all__ = [
    "InvolutionModule",
    "odd_homology",
    "even_homology",
    "coinvariants",
    "bar_homology",
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

    ``matrix`` records f -> f o a on the cell basis; for system level
    modules it is a permutation matrix.
    """

    matrix: tuple

    @classmethod
    def of(cls, matrix: Matrix) -> "InvolutionModule":
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise ValueError("involution matrix must be square")
        sq = mat_mul([list(r) for r in mat], [list(r) for r in mat])
        if sq != identity_matrix(n):
            raise ValueError("matrix must be an involution (A*A = I)")
        return cls(mat)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "InvolutionModule":
        n = len(perm)
        mat = [[0] * n for _ in range(n)]
        for j, i in enumerate(perm):
            mat[i][j] = 1
        return cls.of(mat)

    @property
    def ncells(self) -> int:
        return len(self.matrix)

    def mat(self) -> Matrix:
        return [list(r) for r in self.matrix]


def _a_minus_i(module: InvolutionModule) -> Matrix:
    return mat_sub(module.mat(), identity_matrix(module.ncells))


def _a_plus_i(module: InvolutionModule) -> Matrix:
    return mat_add(module.mat(), identity_matrix(module.ncells))


def odd_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A - I) / im(A + I): the odd-degree homology of the order-2 action."""
    return subquotient(_a_minus_i(module), _a_plus_i(module))


def even_homology(module: InvolutionModule) -> FGAbGroup:
    """ker(A + I) / im(A - I): the positive even-degree homology."""
    return subquotient(_a_plus_i(module), _a_minus_i(module))


def coinvariants(module: InvolutionModule) -> FGAbGroup:
    """coker(A - I), the degree-0 homology of the order-2 action."""
    return Presentation.of(module.ncells, columns(_a_minus_i(module))).canonical()


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


def bar_homology(module: InvolutionModule, degree: int) -> FGAbGroup:
    """H_degree of the order-2 action via the unnormalized bar complex.

    Independent of the periodic two-term formulas: the homology is read
    off ranks and elementary divisors of the raw bar boundaries.  Sizes
    are guarded since the complex grows like 2^degree.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > _BAR_MAX_DEGREE or module.ncells > _BAR_MAX_CELLS:
        raise ValueError(
            f"bar oracle guard: degree <= {_BAR_MAX_DEGREE} and cells <= {_BAR_MAX_CELLS}")
    n = module.ncells
    dim_n = n * (1 << degree)
    d_n = _bar_boundary(module, degree)
    rank_d_n = sum(1 for d in snf_diagonal(d_n) if d) if d_n else 0
    d_next = _bar_boundary(module, degree + 1)
    diag_next = snf_diagonal(d_next)
    rank_next = sum(1 for d in diag_next if d)
    torsion = tuple(d for d in diag_next if d > 1)
    # im(d_next) sits inside the pure sublattice ker(d_n), so the
    # elementary divisors of d_next are those of the inclusion.
    return FGAbGroup(dim_n - rank_d_n - rank_next, torsion)


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
    generators_generate: Optional[bool] = None

    def stabilized_level(self) -> Optional[int]:
        if self.limit.kind != "stabilized":
            return None
        return self.limit.level


_MAX_TELESCOPE_CELLS = 512
_MAX_FREEPRODUCT_CELLS = 128


def _require_levels(system, message: str) -> None:
    """Reject a system that has no level windows (circle and odometer
    systems have them)."""
    if not hasattr(system, "level_windows"):
        raise ValueError(message)


def _deepest_level(system, max_level: int, cell_cap: int) -> int:
    """Deepest usable level: within the request and the system's depth.

    Only an odometer's depth falls short of a request, where its chain
    ends or its levels pass ``cell_cap`` cosets.
    """
    top = system.depth(max_level, cell_cap)
    if top < min(max_level, 3):
        raise ValueError(
            f"need at least 3 odometer levels with at most {cell_cap} cosets")
    return top


def h0_translation_telescope(system, max_level: int) -> TelescopeResult:
    """H_0 of the translation action on C(X, Z), with the flip action.

    Stage N presents the functions on the flip window of level N modulo
    f - f o (1,0) for f on the window ``relation_lag`` levels down.
    Circle systems stabilize to a finitely generated group; odometers
    produce a rank-one system whose limit is reported as a localization
    descriptor.  The flip P acts trivially when every column of
    incl * (P - I) lies in the next stage's relations; then incl * P is a
    map of presented groups too (incl * P * r = incl * r + incl * (P - I) * r
    for a relation r), and (1 + flip)H_0 = 2 H_0 is returned in canonical
    form (doubling a localization of Z is an isomorphism onto its image).
    """
    if max_level < 3:
        raise ValueError("max_level must be >= 3")
    _require_levels(system, "telescope requires a circle or odometer system")
    top = _deepest_level(system, max_level, _MAX_TELESCOPE_CELLS)
    lag = system.relation_lag
    windows = [system.symmetric_cells(t) for t in range(1 - lag, top + 1)]
    cell_lists = windows[lag:]
    stages = [
        Presentation.of(len(cells), columns(mat_sub(
            cover_matrix(src, cells), pullback_matrix(system, TRANSLATION, src, cells))))
        for src, cells in zip(windows, cell_lists)]
    # refinement commutes with translation, so the refinement of the
    # relation windows lifts each inclusion (see the module docstring)
    covers = [cover_matrix(a, b) for a, b in zip(windows, windows[1:])]
    incls = covers[lag:]
    connecting = tuple(AbHom.of(stages[i], stages[i + 1], m, w)
                       for i, (m, w) in enumerate(zip(incls, covers)))
    limit = _image_refined_limit(DirectSystem(tuple(stages), connecting))
    # the flip rule of the docstring: incl * (P - I) lands in the relations
    sigma_trivial = all(
        stage.contains_relation(col)
        for stage, m, cells in zip(stages[1:], incls, cell_lists)
        for col in columns(mat_sub(mat_mul(m, pullback_matrix(system, FLIP, cells, cells)), m)))

    generators_generate = None
    if limit.kind == "stabilized":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on the translation H0; "
                "the doubled subgroup is not computed at finite level", max_level)
        h0: GroupValue = limit.group
        h0_plus: GroupValue = _doubled_subgroup(h0)
        gens = [_indicator_vector(g, cell_lists[-1]) for g in system.h0_generators()]
        if gens:
            # the classes generate the image of the previous stage, hence
            # the limit: check span(gens, relations) contains the included
            # module
            span = from_columns(gens + list(stages[-1].relations), rows=stages[-1].ngens)
            generators_generate = lattice_subset(connecting[-1].mat(), span)
    elif limit.kind == "localization":
        if not sigma_trivial:
            raise NonStabilizationError(
                "flip acts nontrivially on a localization limit", max_level)
        h0 = h0_plus = limit.localization
    else:
        raise NonStabilizationError(
            f"translation H0 undetermined at level {max_level}", max_level)

    return TelescopeResult(
        stages=tuple(stages),
        connecting=connecting,
        limit=limit,
        sigma_trivial=sigma_trivial,
        h0=h0,
        h0_plus=h0_plus,
        generators_generate=generators_generate,
    )


def _doubled_subgroup(g: FGAbGroup) -> FGAbGroup:
    """The image of multiplication by 2 on a group in canonical form."""
    torsion = []
    for d in g.torsion:
        dd = d // 2 if d % 2 == 0 else d
        if dd > 1:
            torsion.append(dd)
    return FGAbGroup(g.rank, tuple(torsion))


def _indicator_vector(target, cells) -> List[int]:
    vec = [0] * len(cells)
    for i in cover_indices(target, cells):
        vec[i] = 1
    return vec


# ---------------------------------------------------------------------------
# Free-product assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeProductFragment:
    """Degree-0/1 homology assembled from the two order-2 subgroups;
    ``odd_stages`` presents the two odd homologies that make up ``h1``."""

    h0: FGAbGroup
    h1: FGAbGroup
    paired_injective: bool
    middle_exact: bool
    h0_presentation: Presentation
    odd_stages: Tuple[KernelQuotient, KernelQuotient]


def _total_coinvariants(msigma: InvolutionModule, mphisigma: InvolutionModule,
                        inclusion: Matrix) -> Presentation:
    """The fine module modulo both families of coinvariant relations:
    f - f o sigma on the fine cells and the included g - g o phisigma."""
    return Presentation.of(msigma.ncells, columns(_a_minus_i(msigma))
                           + columns(mat_mul(inclusion, _a_minus_i(mphisigma))))


def free_product_fragment(msigma: InvolutionModule, mphisigma: InvolutionModule,
                          inclusion: Matrix) -> FreeProductFragment:
    """Assemble H_0 and H_1 from involution modules on matched windows.

    ``inclusion`` embeds the second module's cells into the first
    module's (the first is the finer one).  H_1 is the direct sum of the
    two odd homologies; H_0 is the quotient of the fine module by both
    families of coinvariant relations.  The four-term sequence built
    from the pair of coinvariants is checked exactly, from the canonical
    form of one cokernel, C = coker(paired):

    * ``paired_injective``: the paired map (cor, -cor) from the free
      coarse module has a free kernel, so it is injective when the
      kernel has rank 0.  The rank of the middle term is the sum of the
      two nullities of A - I (the lengths of the odd-homology kernel
      bases), so the test is the identity
      n_coarse - (nullity_sigma + nullity_phisigma) + rank(C) = 0.
    * ``middle_exact``: the summed map [I | inclusion] sends the middle
      relations column for column onto the H_0 relations, so it is a
      map of presented groups, onto because its first block is the
      identity; and summed * paired = 0.  Both identities are checked.
      The summed map then induces a surjection C -> H_0, which is an
      isomorphism, and the sequence exact in the middle, exactly when C
      and H_0 have the same canonical form (finitely generated abelian
      groups are Hopfian).

    Exactness in the middle holds for every inclusion matrix: if
    u + incl(v) = a + incl(b) with a, b coinvariant relations, then
    (u, v) = (a, b) - paired(v - b).  So a false ``middle_exact`` means
    an arithmetic fault, not a property of the system.
    """
    n_fine = msigma.ncells
    n_coarse = mphisigma.ncells
    if len(inclusion) != n_fine or (inclusion and len(inclusion[0]) != n_coarse):
        raise ValueError("inclusion matrix shape mismatch")

    odd_stages = tuple(KernelQuotient(_a_minus_i(m), _a_plus_i(m)) for m in (msigma, mphisigma))
    h1 = odd_stages[0].presentation.canonical().direct_sum(
        odd_stages[1].presentation.canonical())

    h0_pres = _total_coinvariants(msigma, mphisigma, inclusion)
    h0 = h0_pres.canonical()

    # middle term: coinvariants of the two modules, relations as columns
    middle = ([col + [0] * n_coarse for col in columns(_a_minus_i(msigma))]
              + [[0] * n_fine + col for col in columns(_a_minus_i(mphisigma))])
    # (cor, -cor): defined on the coarse module, the intersection of the
    # two; the inclusion stacked over -I
    paired = [list(row) for row in inclusion] + [
        [-x for x in row] for row in identity_matrix(n_coarse)]
    coker_pres = Presentation.of(n_fine + n_coarse, middle + columns(paired))
    coker = coker_pres.canonical()
    nullities = sum(q.presentation.ngens for q in odd_stages)
    paired_injective = n_coarse - nullities + coker.rank == 0

    # summed map onto the total coinvariants: [u] + [v] -> [u + incl(v)];
    # the columns of coker_pres are the middle relations, then paired, so
    # the two identities are summed * R_coker = R_h0 * [I | 0]
    summed = [e + list(row) for e, row in zip(identity_matrix(n_fine), inclusion)]
    width = len(coker_pres.relations)
    onto_first = [[0] * k + [1] + [0] * (width - k - 1) for k in range(len(middle))]
    middle_exact = (lift_identity(summed, coker_pres.relations, h0_pres.relations, onto_first)
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


def _odd_homology_limit(stages: Sequence[KernelQuotient], inclusions: Sequence[Matrix],
                        max_level: int) -> FGAbGroup:
    """The limit of one reflection's odd homologies along refinement.

    ``inclusions[i]`` embeds module i into module i+1 and commutes with
    the involutions, so it maps ker(A - I) into ker(A - I); the induced
    maps are written on the kernel bases.  A stage's relations are the
    coordinates of the columns of A + I, and incl * (A + I) = (A' + I) *
    incl, so ``incl`` is the lift of each induced map.
    """
    homs = tuple(
        AbHom.of(a.presentation, b.presentation, from_columns(
            b.coordinates(columns(mat_mul(incl, a.basis))), rows=b.presentation.ngens), incl)
        for a, b, incl in zip(stages, stages[1:], inclusions))
    limit = _image_refined_limit(DirectSystem(tuple(s.presentation for s in stages), homs))
    if limit.kind != "stabilized":
        raise NonStabilizationError(
            f"free-product H1 still moving at level {max_level}", max_level)
    return limit.group


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix with blocks a and b, each with at least one row."""
    return ([list(row) + [0] * len(b[0]) for row in a]
            + [[0] * len(a[0]) + list(row) for row in b])


def _image_refined_limit(ds: DirectSystem):
    """limit(), retried on the system of images when undetermined.

    The colimit of a direct system equals the colimit of the images of
    its connecting maps, and classes that die under refinement only
    vanish in the image system.
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


def free_product_homology(system, max_level: int) -> FreeProductResult:
    """Run the free-product assembly across levels and take honest limits.

    At each level from 2 up, the flip module lives on the system's flip
    window and the reflected-flip module on its reflected window (for
    odometers both are the level's cylinders), joined by the refinement
    inclusion.  Degree 0 is followed through the chain of
    total-coinvariant presentations (stabilizing for circles, a
    localization for odometers); degree 1 through the chain of odd
    homologies of each reflection's modules, whose limits add up to H_1.
    """
    _require_levels(system, "free-product assembly requires a circle or odometer system")
    max_level = _deepest_level(system, max_level, _MAX_FREEPRODUCT_CELLS)
    if max_level < 4:
        raise ValueError("need at least three levels")
    levels = list(range(2, max_level + 1))
    windows = [system.level_windows(t) for t in levels]
    frags = [
        (level, free_product_fragment(
            InvolutionModule.of(pullback_matrix(system, FLIP, fine, fine)),
            InvolutionModule.of(pullback_matrix(system, GroupElement(1, 1), coarse, coarse)),
            cover_matrix(coarse, fine)))
        for level, (fine, coarse) in zip(levels, windows)]

    # inclusions between consecutive levels, per window
    sym_incls = [cover_matrix(a, b) for (a, _), (b, _) in zip(windows, windows[1:])]
    refl_incls = [cover_matrix(a, b) for (_, a), (_, b) in zip(windows, windows[1:])]

    # an H0 stage's relations are the flip's, then the included reflected
    # flip's, so the two window inclusions lift its maps block by block
    h0_stages = tuple(f.h0_presentation for _, f in frags)
    h0_limit = DirectSystem(h0_stages, tuple(
        AbHom.of(a, b, m, _block_diag(m, r))
        for a, b, m, r in zip(h0_stages, h0_stages[1:], sym_incls, refl_incls))).limit()
    if h0_limit.kind == "stabilized":
        h0: GroupValue = h0_limit.group
        stabilized_at: Optional[int] = levels[h0_limit.level - 1]
    elif h0_limit.kind == "localization":
        h0 = h0_limit.localization
        stabilized_at = None
    else:
        raise NonStabilizationError(
            f"free-product H0 still moving at level {max_level}", max_level)

    sigma, phisigma = zip(*(f.odd_stages for _, f in frags))
    h1 = _odd_homology_limit(sigma, sym_incls, max_level).direct_sum(
        _odd_homology_limit(phisigma, refl_incls, max_level))

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
    """The transfer, evaluated two levels below the top of the telescope.

    On the circle system the flip has a fixed point, so the kernel must
    vanish and the image must realize the doubled translation classes.
    """
    tele = h0_translation_telescope(system, max_level)
    idx = len(tele.stages) - 3
    if idx < 0:
        raise NonStabilizationError("not enough computed levels", max_level)
    level = idx + 1

    cells, coarse = system.level_windows(level)
    msig = InvolutionModule.of(pullback_matrix(system, FLIP, cells, cells))
    h0_gamma = _total_coinvariants(
        msig, InvolutionModule.of(pullback_matrix(system, GroupElement(1, 1), coarse, coarse)),
        cover_matrix(coarse, cells))

    # into the telescope stage two levels up (relation windows widen once)
    target = tele.stages[idx + 2]
    up = mat_mul(tele.connecting[idx + 1].mat(), tele.connecting[idx].mat())
    tr_matrix = mat_mul(up, _a_plus_i(msig))
    tr_map = AbHom.of(h0_gamma, target, tr_matrix)
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
    depth = system.depth(max_level)
    fixed_name, fixed, fixed_count = system.reflection_fixed(depth)
    tele = h0_translation_telescope(system, depth)
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
    fp = free_product_homology(system, depth)
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
