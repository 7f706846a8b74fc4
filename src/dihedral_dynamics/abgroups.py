"""Exact finitely generated abelian groups and integer lattice algebra.

Everything runs on arbitrary-precision integers: Smith normal forms with
unimodular transforms, integer linear solving, kernel and preimage
lattices, presented groups with homomorphisms, and direct systems with
stabilization detection.  Rank-one systems whose limit is not finitely
generated (Z -> Z by repeated multiplication) are reported through a
localization descriptor instead of being materialized.

Matrices enter and leave as lists of rows.  Every Smith form comes from
one sparse elimination (``_SparseSmith``): the working matrix is a dict
of sparse rows with a column -> rows index, and a finished pivot's row
and column leave it.  Pivots of absolute value 1 go first, least
Markowitz cost (row nnz - 1) * (col nnz - 1) first; when no unit is
left, the least absolute entry is the pivot, Euclid steps clear its row
and column, and the leftover block is made divisible by it.  Ties break
on (cost, row, col), so outputs are reproducible bit for bit.  The
diagonal-only mode (``snf_diagonal``, ``Presentation.canonical``) tracks
no transforms, and drops a unit pivot's row once its column is clear:
the column steps would change only that row.  The transform mode
(``smith_normal_form``, ``kernel_basis``, ``SnfSolver``) tracks U as
sparse rows and V as sparse columns, and no inverse of either.

Yes/no questions are decided from Smith diagonals, and transform
tracking serves only callers that read coordinates (``subquotient``,
``kernel_basis``, ``smith_normal_form``).  Finitely generated abelian
groups are Hopfian: a surjection between two isomorphic ones is an
isomorphism.  So ``AbHom.is_isomorphism`` compares the canonical forms
of source and destination (each read once per presentation) and asks
for surjectivity, and builds no kernel lattice.  Relation membership is
the same test: Z^n / L(R) maps onto Z^n / L(R + X), so the columns X lie
in the relation lattice L(R) exactly when both quotients have the same
canonical form (``Presentation.contains_relations``).

A matrix M is a map of presented groups when it sends the source
relations R into the destination relations R'.  A caller that knows why
passes the reason as a lift: an integer matrix W with M * R = R' * W,
one column of W per source relation.  ``lift_identity`` checks that
identity exactly, column by column from the nonzeros of both sides, so
it proves the map without a Smith form.  Without a lift, ``AbHom.of``
asks once whether the images M * R lie in the destination relations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FGAbGroup",
    "Presentation",
    "AbHom",
    "DirectSystem",
    "multiplier_limit",
    "LimitDescriptor",
    "LocalizationDescriptor",
    "smith_normal_form",
    "snf_diagonal",
    "kernel_basis",
    "subquotient",
    "identity_matrix",
    "mat_mul",
    "mat_vec",
]

Matrix = List[List[int]]


# ---------------------------------------------------------------------------
# Basic matrix helpers
# ---------------------------------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a: Matrix, v: Sequence[int]) -> List[int]:
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum(ai[k] * x for k, x in nonzero) for ai in a]


def lift_identity(matrix: Matrix, src_relations: Sequence[Sequence[int]],
                  dst_relations: Sequence[Sequence[int]], lift: Matrix) -> bool:
    """Whether matrix * R_src == R_dst * lift, with R_src and R_dst given
    by their relation columns and ``lift`` by rows, one row per
    destination relation and one column per source relation.

    Column j of the left side is summed from the nonzeros of source
    relation j, column j of the right side from the nonzeros of lift
    column j; zero entries cost one C-level scan.
    """
    if len(lift) != len(dst_relations) or any(len(row) != len(src_relations) for row in lift):
        return False
    mat_cols, lift_cols = {}, {}
    for i, row in enumerate(matrix):
        for k in compress(range(len(row)), row):
            mat_cols.setdefault(k, []).append((i, row[k]))
    for i, row in enumerate(lift):
        for j in compress(range(len(row)), row):
            lift_cols.setdefault(j, []).append((i, row[j]))
    for j, rel in enumerate(src_relations):
        acc = {}
        for k in compress(range(len(rel)), rel):
            for i, x in mat_cols.get(k, ()):
                acc[i] = acc.get(i, 0) + x * rel[k]
        for k, w in lift_cols.get(j, ()):
            dst = dst_relations[k]
            for i in compress(range(len(dst)), dst):
                acc[i] = acc.get(i, 0) - w * dst[i]
        if any(acc.values()):
            return False
    return True


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def columns(a: Matrix) -> List[List[int]]:
    return [list(col) for col in zip(*a)] if a else []


def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> Matrix:
    if not cols:
        return [[] for _ in range(rows)] if rows else []
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src for sparse vectors stored as {index: nonzero}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


class _SparseSmith:
    """Exact sparse elimination of an integer matrix to Smith form.

    The active block of S is ``rows`` ({row: {col: nonzero}}) indexed by
    ``cols`` ({col: set of rows}).  A pivot whose row and column are
    clear leaves the block.  ``pivots`` lists (row, col, d) in original
    indices, the d in a divisibility chain.  With ``track``, ``u`` holds
    the rows of U and ``v`` the columns of V, keyed by original index, so
    that U*mat*V has d at each (row, col) of ``pivots`` and zeros
    elsewhere; every d is then positive.
    """

    def __init__(self, mat: Matrix, track: bool):
        self.nrows = len(mat)
        self.ncols = len(mat[0]) if mat else 0
        self.rows = {}
        self.cols = {j: set() for j in range(self.ncols)}
        for i, row in enumerate(mat):
            entries = {j: row[j] for j in compress(range(len(row)), row)}
            if entries:
                self.rows[i] = entries
                for j in entries:
                    self.cols[j].add(i)
        self.track = track
        if track:
            self.u = {i: {i: 1} for i in range(self.nrows)}
            self.v = {j: {j: 1} for j in range(self.ncols)}
        self.pivots = []
        self._unit_phase()
        self._euclid_phase()

    def diagonal(self) -> List[int]:
        diag = [abs(d) for _, _, d in self.pivots]
        return diag + [0] * (min(self.nrows, self.ncols) - len(diag))

    # -- elementary operations ------------------------------------------

    def _add_row(self, dst: int, src: int, q: int) -> None:
        """row dst += q * row src (S and U)."""
        if not q:
            return
        row, cols = self.rows[dst], self.cols
        for j, x in self.rows[src].items():
            y = row.get(j, 0) + q * x
            if y:
                if j not in row:
                    cols[j].add(dst)
                row[j] = y
            else:
                del row[j]
                cols[j].discard(dst)
        if self.track:
            _axpy(self.u[dst], self.u[src], q)

    def _add_col(self, dst: int, src: int, q: int) -> None:
        """col dst += q * col src (S and V)."""
        if not q:
            return
        rows, col = self.rows, self.cols[dst]
        for i in self.cols[src]:
            row = rows[i]
            y = row.get(dst, 0) + q * row[src]
            if y:
                row[dst] = y
                col.add(i)
            else:
                del row[dst]
                col.discard(i)
        if self.track:
            _axpy(self.v[dst], self.v[src], q)

    def _finish(self, r: int, c: int) -> None:
        """Record the pivot (r, c), whose column is clear, and drop its
        row and column from the block."""
        row = self.rows.pop(r)
        d = row.pop(c)
        del self.cols[c]
        for j in row:
            self.cols[j].discard(r)
        if d < 0 and self.track:
            self.u[r] = {k: -x for k, x in self.u[r].items()}
            d = -d
        self.pivots.append((r, c, d))

    # -- unit pivots, fewest fill first ---------------------------------

    def _markowitz(self, i: int, j: int) -> int:
        return (len(self.rows[i]) - 1) * (len(self.cols[j]) - 1)

    def _row_units(self, i: int, skip=()) -> list:
        """(Markowitz cost, row, col) of the +-1 entries of row i outside
        the columns ``skip``."""
        cols = self.cols
        f = len(self.rows[i]) - 1
        return [(f * (len(cols[j]) - 1), i, j) for j, x in self.rows[i].items()
                if (x == 1 or x == -1) and j not in skip]

    def _col_units(self, j: int) -> list:
        """(Markowitz cost, row, col) of the +-1 entries of column j."""
        rows = self.rows
        f = len(self.cols[j]) - 1
        return [((len(rows[i]) - 1) * f, i, j) for i in self.cols[j]
                if rows[i][j] == 1 or rows[i][j] == -1]

    def _unit_phase(self) -> None:
        """Take +-1 pivots while any is left, least Markowitz cost first.

        The heap may hold stale keys, but it holds the current key of
        every unit.  A pivot step changes the value or cost of an entry
        only in its line columns (the pivot row's other columns) and in
        the rows it touched whose length changed: a touched row of the
        same length keeps its entries outside the line columns, and their
        columns keep their lengths.  Those entries are re-pushed, each
        once, so a popped key that still equals its entry's cost is the
        exact minimum of (cost, row, col).
        """
        rows, cols = self.rows, self.cols
        heap = [entry for i in rows for entry in self._row_units(i)]
        heapq.heapify(heap)
        while heap:
            cost, r, c = heapq.heappop(heap)
            row = rows.get(r)
            x = row.get(c) if row is not None else None
            if (x == 1 or x == -1) and self._markowitz(r, c) == cost:
                lengths = [(i, len(rows[i])) for i in cols[c] if i != r]
                line = {j for j in row if j != c}
                self._pivot(r, c)
                for j in line:
                    for entry in self._col_units(j):
                        heapq.heappush(heap, entry)
                for i, n in lengths:
                    if len(rows[i]) != n:
                        for entry in self._row_units(i, line):
                            heapq.heappush(heap, entry)

    # -- the block left without units, and the pivot step of both phases -

    def _euclid_phase(self) -> None:
        """Pivot on the least |entry| (then Markowitz cost, row, col) of
        the block left without units, until it is empty."""
        while True:
            best = min(((abs(x), self._markowitz(i, j), i, j)
                        for i, row in self.rows.items() for j, x in row.items()),
                       default=None)
            if best is None:
                return
            self._pivot(best[2], best[3])

    def _pivot(self, r: int, c: int) -> None:
        """Clear row r and column c around a pivot at (r, c) and finish it.

        Row operations clear the column and column operations the row;
        a nonzero remainder is smaller than the pivot and becomes the
        pivot (Euclid steps).  A pivot that does not divide the rest of
        the block takes in a row it does not divide and goes on; a unit
        divides everything.
        """
        rows, cols = self.rows, self.cols
        while True:
            p = rows[r][c]
            for i in [i for i in cols[c] if i != r]:
                self._add_row(i, r, -(rows[i][c] // p))
            rest = [i for i in cols[c] if i != r]
            if rest:
                r = min(rest, key=lambda i: (abs(rows[i][c]), i))
                continue
            if (p == 1 or p == -1) and not self.track:
                # the column steps would change only row r, which _finish drops
                break
            for j in [j for j in rows[r] if j != c]:
                self._add_col(j, c, -(rows[r][j] // p))
            rest = [j for j in rows[r] if j != c]
            if rest:
                c = min(rest, key=lambda j: (abs(rows[r][j]), j))
                continue
            if p == 1 or p == -1:
                break
            bad = min((i for i, row in rows.items()
                       if i != r and any(x % p for x in row.values())), default=None)
            if bad is None:
                break
            self._add_row(r, bad, 1)
        self._finish(r, c)


def smith_normal_form(mat: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """U, S, V with U*mat*V = S diagonal in a divisibility chain.

    U and V are unimodular; the identity is verified by multiplication
    before returning.
    """
    snf = _SparseSmith(mat, track=True)
    rows, cols = snf.nrows, snf.ncols
    prows = [r for r, _, _ in snf.pivots]
    pcols = [c for _, c, _ in snf.pivots]
    row_order = prows + sorted(set(range(rows)) - set(prows))
    col_order = pcols + sorted(set(range(cols)) - set(pcols))
    u = [[snf.u[i].get(k, 0) for k in range(rows)] for i in row_order]
    v = [[snf.v[j].get(k, 0) for j in col_order] for k in range(cols)]
    s = [[0] * cols for _ in range(rows)]
    for k, (_, _, d) in enumerate(snf.pivots):
        s[k][k] = d
    if rows and cols and mat_mul(mat_mul(u, mat), v) != s:
        raise AssertionError("smith normal form transform identity failed")
    return u, s, v


def snf_diagonal(mat: Matrix) -> List[int]:
    """The diagonal of the Smith form (same pivoting, no transforms)."""
    return _SparseSmith(mat, track=False).diagonal()


def kernel_basis(mat: Matrix) -> List[List[int]]:
    """Columns spanning {x : mat x = 0}; a basis of the kernel lattice."""
    snf = _SparseSmith(mat, track=True)
    pivot_cols = {c for _, c, _ in snf.pivots}
    basis = []
    for j in range(snf.ncols):
        if j not in pivot_cols:
            col = [0] * snf.ncols
            for k, x in snf.v[j].items():
                col[k] = x
            basis.append(col)
    return basis


class SnfSolver:
    """Factor a matrix once, then answer mat x = rhs queries cheaply.

    Right-hand sides are usually sparse, so U*rhs is accumulated from
    the nonzero entries only, through the columns of U, and x = V*y from
    the nonzero entries of y, through the columns of V.
    """

    def __init__(self, mat: Matrix):
        snf = _SparseSmith(mat, track=True)
        self.cols = snf.ncols
        self._u_cols = {}
        for i, urow in snf.u.items():
            for k, x in urow.items():
                self._u_cols.setdefault(k, []).append((i, x))
        self._pivot_of_row = {r: (c, d) for r, c, d in snf.pivots}
        self._v = snf.v

    def solve(self, rhs: Sequence[int]) -> Optional[List[int]]:
        """An integer x with mat x = rhs, or None: y solves S*y = U*rhs
        pivot by pivot, and x = V*y."""
        c = {}
        for k, b in enumerate(rhs):
            if b:
                for i, u in self._u_cols.get(k, ()):
                    c[i] = c.get(i, 0) + b * u
        x = [0] * self.cols
        for i, ci in c.items():
            if ci:
                pivot = self._pivot_of_row.get(i)
                if pivot is None or ci % pivot[1]:
                    return None
                q = ci // pivot[1]
                for k, vk in self._v[pivot[0]].items():
                    x[k] += q * vk
        return x


def preimage_lattice(mat: Matrix, lat: Matrix) -> Matrix:
    """Generators of {x : mat x lies in the column lattice of lat}.

    Computed as the projection of the kernel of the block [mat | -lat].
    """
    n = len(mat[0]) if mat else 0
    if not mat:
        return identity_matrix(n)
    k = len(lat[0]) if lat else 0
    block = [list(mat[i]) + [-lat[i][j] for j in range(k)] for i in range(len(mat))]
    gens = [col[:n] for col in kernel_basis(block)]
    return from_columns(gens, rows=n)


# ---------------------------------------------------------------------------
# Canonical groups and presentations
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict:
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FGAbGroup:
    """Canonical form: free rank plus the divisor chain d1 | d2 | ..."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain d1 | d2 | ...")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion divisors must be >= 2")

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "FGAbGroup") -> "FGAbGroup":
        # Recombine prime powers into a divisor chain.
        primes = {}
        for d in self.torsion + other.torsion:
            for p, e in _factorize(d).items():
                primes.setdefault(p, []).append(e)
        depth = max((len(v) for v in primes.values()), default=0)
        chain = []
        for k in range(depth):
            d = 1
            for p, exps in primes.items():
                exps_sorted = sorted(exps, reverse=True)
                if k < len(exps_sorted):
                    d *= p ** exps_sorted[k]
            chain.append(d)
        chain.reverse()
        return FGAbGroup(self.rank + other.rank, tuple(chain))

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "FGAbGroup":
        return cls(int(data["rank"]), tuple(int(d) for d in data.get("torsion", ())))

    @classmethod
    def free(cls, rank: int) -> "FGAbGroup":
        return cls(rank, ())

    @classmethod
    def elementary_two(cls, k: int) -> "FGAbGroup":
        return cls(0, (2,) * k)


@dataclass(frozen=True)
class Presentation:
    """Z^ngens modulo the column lattice of ``relations``."""

    ngens: int
    relations: tuple  # tuple of columns, each a tuple of length ngens

    @classmethod
    def of(cls, ngens: int, relation_columns: Iterable[Sequence[int]]) -> "Presentation":
        cols = tuple(tuple(map(int, col)) for col in relation_columns)
        for col in cols:
            if len(col) != ngens:
                raise ValueError("relation column length must equal ngens")
        return cls(ngens, cols)

    @classmethod
    def free(cls, ngens: int) -> "Presentation":
        return cls(ngens, ())

    def relation_matrix(self) -> Matrix:
        return from_columns(self.relations, rows=self.ngens)

    def canonical(self) -> FGAbGroup:
        return self._canonical

    @cached_property
    def _canonical(self) -> FGAbGroup:
        if self.ngens == 0:
            return FGAbGroup(0)
        if not self.relations:
            return FGAbGroup(self.ngens)
        diag = snf_diagonal(self.relation_matrix())
        nonzero = [d for d in diag if d]
        return FGAbGroup(self.ngens - len(nonzero), tuple(d for d in nonzero if d > 1))

    def contains_relations(self, vectors: Iterable[Sequence[int]]) -> bool:
        """Whether every vector lies in the relation lattice L(R).

        The quotient map Z^n / L(R) -> Z^n / L(R + X) is onto, so X lies
        in L(R) exactly when both quotients have the same canonical form
        (finitely generated abelian groups are Hopfian): one diagonal-only
        Smith form, with the zero vectors left out.
        """
        extra = tuple(v for v in vectors if any(v))
        if not extra:
            return True
        # the vectors go first, so pivot ties break toward their columns:
        # on deep golden telescope stages that about halves the elimination
        grown = Presentation.of(self.ngens, extra + self.relations)
        return grown.canonical() == self.canonical()


@dataclass(frozen=True)
class AbHom:
    """A homomorphism of presented groups, given on generators.

    The matrix M has shape (dst.ngens, src.ngens) and must map the source
    relations R into the destination relations R'; that is checked at
    construction.  With a ``lift`` W, the proof is the exact identity
    M * R == R' * W (``lift_identity``), which needs no Smith form; a
    lift is checked, never trusted, and is not stored.  Without one,
    the images M * r must lie in the destination's relation lattice,
    which ``Presentation.contains_relations`` decides by one Smith
    diagonal.
    """

    src: Presentation
    dst: Presentation
    matrix: tuple

    @classmethod
    def of(cls, src: Presentation, dst: Presentation, matrix: Matrix,
           lift: Optional[Matrix] = None) -> "AbHom":
        mat = tuple(tuple(map(int, row)) for row in matrix)
        if len(mat) != dst.ngens or (mat and any(len(r) != src.ngens for r in mat)):
            raise ValueError("homomorphism matrix has wrong shape")
        if lift is None:
            ok = dst.contains_relations(mat_vec(mat, col) for col in src.relations)
        else:
            ok = lift_identity(mat, src.relations, dst.relations, lift)
        if not ok:
            raise ValueError("matrix does not map relations into relations")
        return cls(src, dst, mat)

    def mat(self) -> Matrix:
        return [list(r) for r in self.matrix]

    # -- structural predicates -----------------------------------------

    def is_surjective(self) -> bool:
        stacked = from_columns(
            columns(self.mat()) + list(self.dst.relations), rows=self.dst.ngens)
        diag = snf_diagonal(stacked)
        return sum(1 for d in diag if d == 1) == self.dst.ngens if self.dst.ngens else True

    def _relation_preimage(self) -> Matrix:
        """Generators of {x : mat x lies in the destination relations}; all
        of Z^src.ngens when the destination has no generators (the matrix
        has no rows then, so its width is read from the source)."""
        if not self.dst.ngens:
            return identity_matrix(self.src.ngens)
        return preimage_lattice(self.mat(), self.dst.relation_matrix())

    def kernel_presentation(self) -> Presentation:
        """The kernel as a presented group."""
        pre = self._relation_preimage()
        gens = columns(pre)
        inner = preimage_lattice(pre, self.src.relation_matrix())
        return Presentation.of(len(gens), columns(inner))

    def kernel_group(self) -> FGAbGroup:
        return self.kernel_presentation().canonical()

    def is_isomorphism(self) -> bool:
        """Whether the map is bijective.

        A surjection between isomorphic finitely generated abelian
        groups is injective (they are Hopfian: compose with an
        isomorphism back to get a surjective endomorphism, which is
        injective), so equal canonical forms and surjectivity decide it.
        """
        return self.src.canonical() == self.dst.canonical() and self.is_surjective()

    def image_presentation(self) -> Presentation:
        """The image subgroup of the destination, presented on the source
        generators (relations = preimages of destination relations)."""
        return Presentation.of(self.src.ngens, columns(self._relation_preimage()))

    def image_group(self) -> FGAbGroup:
        """Canonical form of the image subgroup of the destination."""
        return self.image_presentation().canonical()

    def cokernel(self) -> Presentation:
        cols = list(self.dst.relations) + columns(self.mat())
        return Presentation.of(self.dst.ngens, cols)

    def free_multiplier(self) -> Optional[int]:
        """For rank-one torsion-free source and destination, the induced
        multiplier Z -> Z up to sign; None when not applicable.

        Z -> Z by m has cokernel Z/m, so |m| is the order of the
        cokernel: m for Z/m, 1 when it is trivial, 0 when it is Z.
        """
        if self.src.canonical() != FGAbGroup(1) or self.dst.canonical() != FGAbGroup(1):
            return None
        coker = self.cokernel().canonical()
        return 0 if coker.rank else math.prod(coker.torsion)


def subquotient(kernel_of: Matrix, image_of: Matrix) -> FGAbGroup:
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
    return Presentation.of(len(basis), coordinates).canonical()


# ---------------------------------------------------------------------------
# Direct systems and limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationDescriptor:
    """A rank-one limit Z -> Z -> ... described by its multipliers."""

    multipliers: tuple

    @property
    def primes(self) -> tuple:
        ps = set()
        for m in self.multipliers:
            ps.update(_factorize(m))
        return tuple(sorted(ps))

    @property
    def display(self) -> str:
        prod = 1
        for p in self.primes:
            prod *= p
        return f"Z[1/{prod}]" if prod > 1 else "Z"

    def to_json(self) -> dict:
        return {
            "localization": self.display,
            "multipliers": list(self.multipliers),
            "primes": list(self.primes),
        }


@dataclass(frozen=True)
class LimitDescriptor:
    kind: str  # "stabilized" | "localization" | "undetermined"
    group: Optional[FGAbGroup] = None
    level: Optional[int] = None
    localization: Optional[LocalizationDescriptor] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.group is not None:
            out["group"] = self.group.to_json()
        if self.level is not None:
            out["level"] = self.level
        if self.localization is not None:
            out.update(self.localization.to_json())
        return out


def multiplier_limit(group: FGAbGroup, multipliers: Sequence[int]) -> LimitDescriptor:
    """The limit of group -> group -> ... whose i-th map is multiplication
    by ``multipliers[i]``, by the rule of ``DirectSystem.limit``: the maps
    that are isomorphisms (multiplier +-1) from the top down give the
    group, stabilized at the stage below the lowest of them; maps of Z by
    nonzero multipliers, some not +-1, give their localization, named by
    the multipliers up to sign; anything else is undetermined."""
    sizes = [abs(m) for m in multipliers]
    start = len(sizes)
    while start > 0 and sizes[start - 1] == 1:
        start -= 1
    if start < len(sizes):
        return LimitDescriptor(kind="stabilized", group=group, level=start + 1)
    if group == FGAbGroup(1) and all(sizes) and any(m > 1 for m in sizes):
        return LimitDescriptor(kind="localization",
                               localization=LocalizationDescriptor(tuple(sizes)))
    return LimitDescriptor(kind="undetermined", level=len(multipliers) + 1)


@dataclass(frozen=True)
class DirectSystem:
    """Finitely many stages of a direct system, with connecting maps."""

    stages: tuple  # Presentations
    maps: tuple    # AbHoms, maps[i]: stages[i] -> stages[i+1]

    def __post_init__(self) -> None:
        if len(self.maps) != len(self.stages) - 1:
            raise ValueError("need exactly one connecting map between stages")
        for i, h in enumerate(self.maps):
            if h.src != self.stages[i] or h.dst != self.stages[i + 1]:
                raise ValueError(f"connecting map {i} does not match its stages")

    def limit(self) -> LimitDescriptor:
        """Stabilization detection; never materializes a non-f.g. limit."""
        if len(self.stages) < 3:
            raise ValueError("need at least 3 computed stages")
        # isomorphisms from the top map down, to the first that is not one
        start = len(self.maps)
        while start > 0 and self.maps[start - 1].is_isomorphism():
            start -= 1
        if start < len(self.maps):
            return LimitDescriptor(
                kind="stabilized",
                group=self.stages[start].canonical(),
                level=start + 1,
            )
        mults = [h.free_multiplier() for h in self.maps]
        if all(m is not None and m >= 1 for m in mults) and any(m > 1 for m in mults):
            return LimitDescriptor(
                kind="localization",
                localization=LocalizationDescriptor(tuple(mults)),
            )
        return LimitDescriptor(kind="undetermined", level=len(self.stages))
