"""Lattice oracles: kernels, images and subquotients by Smith transforms.

The library reads its order-2 homology off orbit counts and its
odd-homology limits off GF(2) ranks.  These functions compute the same
groups the long way, from kernel and preimage lattices of transform-
tracking Smith forms (``kernel_basis``, ``SnfSolver``), so the tests can
hold the counts and ranks against them.
"""

from dihedral_dynamics.abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    LimitDescriptor,
    Presentation,
    SnfSolver,
    kernel_basis,
    mat_mul,
)

from dense import columns, dense, from_columns, identity_matrix, sparse


def preimage_lattice(mat, lat):
    """Generators of {x : mat x lies in the column lattice of lat}, as the
    projection of the kernel of the block [mat | -lat]."""
    n = len(mat[0]) if mat else 0
    if not mat:
        return identity_matrix(n)
    k = len(lat[0]) if lat else 0
    block = [list(mat[i]) + [-lat[i][j] for j in range(k)] for i in range(len(mat))]
    gens = [col[:n] for col in kernel_basis(block)]
    return from_columns(gens, rows=n)


def subquotient(kernel_of, image_of) -> FGAbGroup:
    """ker(kernel_of) / im(image_of), canonical form.

    The containment im(image_of) in ker(kernel_of) is verified by the
    exact identity kernel_of * image_of = 0; the quotient is read off
    the Smith form of the image columns written in a kernel basis.
    """
    prod = mat_mul(kernel_of, image_of)
    if any(any(row) for row in prod):
        raise ValueError("image is not contained in the kernel")
    basis = kernel_basis(kernel_of)
    solver = SnfSolver(from_columns(basis, rows=len(kernel_of[0]) if kernel_of else 0))
    coordinates = [solver.solve(v) for v in columns(image_of)]
    if None in coordinates:
        raise AssertionError("vector escaped the kernel lattice")
    return Presentation.of(len(basis), sparse(coordinates)).canonical()


def relation_preimage(h: AbHom):
    """Generators of {x : h x lies in the destination relations}; all of
    Z^src.ngens when the destination has no generators (the matrix has
    no rows then, so its width is read from the source)."""
    if not h.dst.ngens:
        return identity_matrix(h.src.ngens)
    return preimage_lattice(dense(h.matrix, h.dst.ngens), dense(h.dst.relations, h.dst.ngens))


def kernel_group(h: AbHom) -> FGAbGroup:
    """The kernel of h, presented on a basis of the relation preimage."""
    pre = relation_preimage(h)
    inner = preimage_lattice(pre, dense(h.src.relations, h.src.ngens))
    return Presentation.of(len(columns(pre)), sparse(columns(inner))).canonical()


def image_presentation(h: AbHom) -> Presentation:
    """The image subgroup of the destination, presented on the source
    generators (relations = preimages of destination relations)."""
    return Presentation.of(h.src.ngens, sparse(columns(relation_preimage(h))))


def image_group(h: AbHom) -> FGAbGroup:
    return image_presentation(h).canonical()


def image_refined_limit(ds: DirectSystem) -> LimitDescriptor:
    """``ds.limit()``, retried on the system of images when undetermined:
    the colimit of a direct system is the colimit of the images of its
    connecting maps, and classes that die under refinement only vanish
    in the image system."""
    lim = ds.limit()
    if lim.kind != "undetermined" or len(ds.maps) < 3:
        return lim
    im_stages = tuple(image_presentation(h) for h in ds.maps)
    im_homs = tuple(
        AbHom.of(im_stages[i], im_stages[i + 1], ds.maps[i].matrix)
        for i in range(len(im_stages) - 1))
    lim2 = DirectSystem(im_stages, im_homs).limit()
    if lim2.kind == "stabilized":
        return LimitDescriptor(kind="stabilized", group=lim2.group, level=lim2.level + 1)
    return lim
