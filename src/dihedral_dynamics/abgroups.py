"""Exact finitely generated abelian groups and integer lattice algebra.

Everything runs on arbitrary-precision integers: Smith normal forms,
presented groups with homomorphisms, and direct systems with
stabilization detection.  Rank-one systems whose limit is not finitely
generated (Z -> Z by repeated multiplication) are reported through a
localization descriptor instead of being materialized.

A matrix is a list of sparse columns, each a dict {row: nonzero} that
holds no zero: a presentation's relations, a homomorphism's matrix (one
column per source generator) and a lift (one column per source
relation).  ``mat_vec`` multiplies such columns by a sparse vector.
Dense lists of rows are left only at the dense entries (``snf_diagonal``,
``smith_normal_form``, ``kernel_basis``, ``SnfSolver``), which convert a
list of rows once and have no caller in the library.

Every Smith form comes from one sparse elimination (``_SparseSmith``) of
the sparse rows {row: {col: nonzero}} of a matrix, which it consumes:
``sparse_snf_diagonal`` takes them as built (the bar boundaries), and
``_group`` transposes a presentation's columns into fresh rows for it,
so a presentation's own columns are never consumed.  Empty rows are left
out, only the columns holding an entry are indexed (column -> rows), and
a finished pivot's row and column leave.  Pivots of absolute value 1 go
first: the shortest row holding a unit (ties to the lower row index), on
its unit in the shortest column (ties to the lower column index),
eliminated by subtracting its row from the other rows of its column.  A
block left without units takes the least absolute entry as pivot (ties
on Markowitz cost (row nnz - 1) * (col nnz - 1), then row, then col):
Euclid steps clear its row and column, and the rest is made divisible
by it.  Every tie breaks on indices, so outputs are reproducible bit for
bit.  The diagonal-only mode tracks no transforms.  The transform mode
(``smith_normal_form``, ``kernel_basis``, ``SnfSolver``) tracks U as
sparse rows and V as sparse columns, and no inverse of either; a unit
pivot's column steps would change only its row, so they are made in V
alone.

Every question the library asks is decided from Smith diagonals; the
transform mode serves callers that read coordinates (the benchmark's
layer trace, the tests' oracles).  Finitely generated abelian groups are
Hopfian: a surjection between two isomorphic ones is an isomorphism.  So
``AbHom.is_isomorphism`` compares the canonical forms of source and
destination (each read once per presentation) and asks for
surjectivity, and builds no kernel lattice.  Relation membership is the
same test: Z^n / L(R) maps onto Z^n / L(R + X), so the columns X lie in
the relation lattice L(R) exactly when both quotients have the same
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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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
    "mat_mul",
    "mat_vec",
]

Matrix = List[List[int]]


# ---------------------------------------------------------------------------
# Basic matrix helpers
# ---------------------------------------------------------------------------


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


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src for sparse vectors stored as {index: nonzero}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def mat_vec(cols: Sequence[dict], v: dict) -> dict:
    """The sparse column M * v, for M given by its sparse columns."""
    out = {}
    for k, x in v.items():
        if x:
            _axpy(out, cols[k], x)
    return out


def lift_identity(matrix: Sequence[dict], src_relations: Sequence[dict],
                  dst_relations: Sequence[dict], lift: Sequence[dict]) -> bool:
    """Whether matrix * R_src == R_dst * lift, every matrix given by its
    sparse columns: ``lift`` has one column per source relation, on the
    destination relations.

    Column j of the left side is summed from the nonzeros of source
    relation j, column j of the right side from the nonzeros of lift
    column j.
    """
    if len(lift) != len(src_relations) or any(
            not 0 <= k < len(dst_relations) for w in lift for k in w):
        return False
    for rel, w in zip(src_relations, lift):
        acc = mat_vec(matrix, rel)
        for k, x in w.items():
            _axpy(acc, dst_relations[k], -x)
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class _SparseSmith:
    """Exact sparse elimination of an integer matrix to Smith form.

    The active block of S is ``rows`` ({row: {col: nonzero}}, the caller's
    rows less the empty ones) indexed by ``cols`` ({col: set of rows});
    ``shape`` is the matrix's (rows, cols).  A pivot whose row and column
    are clear leaves the block, as does a row the unit pivots empty.
    ``pivots`` lists (row, col, d) in original indices, the |d| in a
    divisibility chain.  With ``track``, ``u`` holds the rows of U and
    ``v`` the columns of V, keyed by original index, so that U*mat*V has
    d at each (row, col) of ``pivots`` and zeros elsewhere.
    """

    def __init__(self, rows: dict, shape: Tuple[int, int], track: bool):
        self.nrows, self.ncols = shape
        self.rows = rows = {i: row for i, row in rows.items() if row}
        self.cols = cols = {}
        for i, row in rows.items():
            for j in row:
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
        self.track = track
        if track:
            self.u = {i: {i: 1} for i in range(self.nrows)}
            self.v = {j: {j: 1} for j in range(self.ncols)}
        self.pivots = []
        self._unit_phase()
        self._euclid_phase()

    @classmethod
    def of(cls, mat: Matrix, track: bool) -> "_SparseSmith":
        """The elimination of a dense list of rows."""
        rows = {i: {j: row[j] for j in compress(range(len(row)), row)} for i, row in enumerate(mat)}
        return cls(rows, (len(mat), len(mat[0]) if mat else 0), track)

    def diagonal(self) -> List[int]:
        diag = [abs(d) for _, _, d in self.pivots]
        return diag + [0] * (min(self.nrows, self.ncols) - len(diag))

    # -- unit pivots, shortest row first --------------------------------

    def _unit_phase(self) -> None:
        """Take +-1 pivots while any is left: the least (length, row) row
        holding a unit, on its unit in the least (length, col) column.

        The heap holds (length, row) keys.  A unit pivot p at (r, c)
        changes only the other rows i of its column (row i -= (entry i *
        p) * row r), each pushed again with its new length, so a popped key
        of a finished row, or of a length its row no longer has, is stale.
        A row without a unit waits until a pivot touches it.  The column
        steps that would clear row r change only row r: V alone takes them.
        """
        rows, cols, pivots, track = self.rows, self.cols, self.pivots, self.track
        heap = sorted((len(row), i) for i, row in rows.items())   # sorted, so a heap
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            n, r = pop(heap)
            row = rows.get(r)
            if row is None or len(row) != n:
                continue
            c = -1
            for j, x in row.items():
                if x == 1 or x == -1:
                    m = len(cols[j])
                    if c < 0 or m < cm or m == cm and j < c:
                        c, cm = j, m
            if c < 0:
                continue
            del rows[r]
            p = row.pop(c)
            for j in row:
                cols[j].discard(r)
            steps = [(i, -rows[i].pop(c) * p) for i in cols.pop(c) if i != r]
            for i, q in steps:
                dst = rows[i]
                for j, x in row.items():
                    if j in dst:
                        y = dst[j] + q * x
                        if y:
                            dst[j] = y
                        else:
                            del dst[j]
                            cols[j].discard(i)
                    else:
                        dst[j] = q * x
                        cols[j].add(i)
                if dst:
                    push(heap, (len(dst), i))
                else:
                    del rows[i]
            pivots.append((r, c, p))
            if track:
                for i, q in steps:
                    _axpy(self.u[i], self.u[r], q)
                for j, x in row.items():
                    _axpy(self.v[j], self.v[c], -x * p)

    # -- the block left without units, by Euclid steps ------------------

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

    def _euclid_phase(self) -> None:
        """Pivot on the least |entry| (then Markowitz cost (row nnz - 1) *
        (col nnz - 1), row, col) of the block left without units until it
        is empty.  Row operations clear the pivot's column and column
        operations its row; a nonzero remainder is smaller and becomes the
        pivot (Euclid steps).  A pivot that is not a unit and does not
        divide the rest of the block takes in a row it does not divide and
        goes on."""
        rows, cols = self.rows, self.cols
        while any(rows.values()):
            least = min(abs(x) for row in rows.values() for x in row.values())
            _, r, c = min(((len(row) - 1) * (len(cols[j]) - 1), i, j)
                          for i, row in rows.items() for j, x in row.items() if abs(x) == least)
            while True:
                p = rows[r][c]
                for i in [i for i in cols[c] if i != r]:
                    self._add_row(i, r, -(rows[i][c] // p))
                rest = [i for i in cols[c] if i != r]
                if rest:
                    r = min(rest, key=lambda i: (abs(rows[i][c]), i))
                    continue
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
            del rows[r], cols[c]
            self.pivots.append((r, c, p))


def smith_normal_form(mat: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """U, S, V with U*mat*V = S diagonal in a divisibility chain.

    U and V are unimodular; the identity is verified by multiplication
    before returning.
    """
    snf = _SparseSmith.of(mat, track=True)
    rows, cols = snf.nrows, snf.ncols
    prows = [r for r, _, _ in snf.pivots]
    pcols = [c for _, c, _ in snf.pivots]
    row_order = prows + sorted(set(range(rows)) - set(prows))
    col_order = pcols + sorted(set(range(cols)) - set(pcols))
    u = [[snf.u[i].get(k, 0) for k in range(rows)] for i in row_order]
    v = [[snf.v[j].get(k, 0) for j in col_order] for k in range(cols)]
    s = [[0] * cols for _ in range(rows)]
    for k, (_, _, d) in enumerate(snf.pivots):
        s[k][k] = abs(d)
        if d < 0:
            u[k] = [-x for x in u[k]]
    if rows and cols and mat_mul(mat_mul(u, mat), v) != s:
        raise AssertionError("smith normal form transform identity failed")
    return u, s, v


def snf_diagonal(mat: Matrix) -> List[int]:
    """The diagonal of the Smith form of a list of rows (no transforms)."""
    return _SparseSmith.of(mat, track=False).diagonal()


def sparse_snf_diagonal(rows: dict, shape: Tuple[int, int]) -> List[int]:
    """The Smith diagonal of the sparse rows (consumed) of a matrix of ``shape``."""
    return _SparseSmith(rows, shape, track=False).diagonal()


def kernel_basis(mat: Matrix) -> List[List[int]]:
    """Columns spanning {x : mat x = 0}; a basis of the kernel lattice."""
    snf = _SparseSmith.of(mat, track=True)
    pivot_cols = {c for _, c, _ in snf.pivots}
    return [[snf.v[j].get(k, 0) for k in range(snf.ncols)]
            for j in range(snf.ncols) if j not in pivot_cols]


class SnfSolver:
    """Factor a matrix once, then answer mat x = rhs queries cheaply.

    Right-hand sides are usually sparse, so U*rhs is accumulated from
    the nonzero entries only, through the columns of U, and x = V*y from
    the nonzero entries of y, through the columns of V.
    """

    def __init__(self, mat: Matrix):
        snf = _SparseSmith.of(mat, track=True)
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
    def elementary_two(cls, k: int) -> "FGAbGroup":
        return cls(0, (2,) * k)


def _group(ngens: int, cols: Sequence[dict]) -> FGAbGroup:
    """Z^ngens modulo the lattice of the sparse columns ``cols``, in
    canonical form, from one Smith diagonal of their transpose: fresh
    sparse rows, since the elimination consumes its rows."""
    if not ngens or not cols:
        return FGAbGroup(ngens)
    rows = {i: {} for i in range(ngens)}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    diag = sparse_snf_diagonal(rows, (ngens, len(cols)))
    nonzero = [d for d in diag if d]
    return FGAbGroup(ngens - len(nonzero), tuple(d for d in nonzero if d > 1))


@dataclass(frozen=True)
class Presentation:
    """Z^ngens modulo the lattice of the sparse columns ``relations``."""

    ngens: int
    relations: tuple  # sparse columns {generator: nonzero}

    @classmethod
    def of(cls, ngens: int, relation_columns: Iterable[dict]) -> "Presentation":
        cols = tuple({i: x for i, x in col.items() if x} for col in relation_columns)
        if any(not 0 <= i < ngens for col in cols for i in col):
            raise ValueError("relation column has an entry outside the ngens generators")
        return cls(ngens, cols)

    def canonical(self) -> FGAbGroup:
        return self._canonical

    @cached_property
    def _canonical(self) -> FGAbGroup:
        return _group(self.ngens, self.relations)

    def contains_relations(self, vectors: Iterable[dict]) -> bool:
        """Whether every sparse vector lies in the relation lattice L(R).

        The quotient map Z^n / L(R) -> Z^n / L(R + X) is onto, so X lies
        in L(R) exactly when both quotients have the same canonical form
        (finitely generated abelian groups are Hopfian): one diagonal-only
        Smith form, with the zero vectors left out.
        """
        extra = tuple(v for v in vectors if v)
        if not extra:
            return True
        # the vectors go first, so pivot ties break toward their columns:
        # on deep golden telescope stages that about halves the elimination
        return _group(self.ngens, extra + self.relations) == self.canonical()


@dataclass(frozen=True)
class AbHom:
    """A homomorphism of presented groups, given on generators.

    The matrix M has one sparse column per source generator, on the
    destination generators, and must map the source relations R into the
    destination relations R'; that is checked at construction.  With a
    ``lift`` W, the proof is the exact identity M * R == R' * W
    (``lift_identity``), which needs no Smith form; a lift is checked,
    never trusted, and is not stored.  Without one, the images M * r must
    lie in the destination's relation lattice, which
    ``Presentation.contains_relations`` decides by one Smith diagonal.
    """

    src: Presentation
    dst: Presentation
    matrix: tuple  # sparse columns, one per source generator

    @classmethod
    def of(cls, src: Presentation, dst: Presentation, matrix: Iterable[dict],
           lift: Optional[Sequence[dict]] = None) -> "AbHom":
        mat = tuple({i: x for i, x in col.items() if x} for col in matrix)
        if len(mat) != src.ngens or any(not 0 <= i < dst.ngens for col in mat for i in col):
            raise ValueError("homomorphism matrix has wrong shape")
        if lift is None:
            ok = dst.contains_relations(mat_vec(mat, col) for col in src.relations)
        else:
            ok = lift_identity(mat, src.relations, dst.relations, lift)
        if not ok:
            raise ValueError("matrix does not map relations into relations")
        return cls(src, dst, mat)

    # -- structural predicates -----------------------------------------

    def is_surjective(self) -> bool:
        return _group(self.dst.ngens, self.matrix + self.dst.relations).is_trivial()

    def is_isomorphism(self) -> bool:
        """Whether the map is bijective.

        A surjection between isomorphic finitely generated abelian
        groups is injective (they are Hopfian: compose with an
        isomorphism back to get a surjective endomorphism, which is
        injective), so equal canonical forms and surjectivity decide it.
        """
        return self.src.canonical() == self.dst.canonical() and self.is_surjective()

    def cokernel(self) -> Presentation:
        return Presentation(self.dst.ngens, self.dst.relations + self.matrix)

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


def top_run(count: int, is_iso: Callable[[int], bool]) -> int:
    """The index where the run of isomorphisms at the top of ``count``
    connecting maps starts (``count`` when the top map is not one).
    ``is_iso(i)`` is asked from the top map down, and not below the first
    map that is not an isomorphism."""
    start = count
    while start > 0 and is_iso(start - 1):
        start -= 1
    return start


def multiplier_limit(group: FGAbGroup, multipliers: Sequence[int]) -> LimitDescriptor:
    """The limit of group -> group -> ... whose i-th map is multiplication
    by ``multipliers[i]``, by the rule of ``DirectSystem.limit``: the maps
    that are isomorphisms (multiplier +-1) from the top down give the
    group, stabilized at the stage below the lowest of them; maps of Z by
    nonzero multipliers, some not +-1, give their localization, named by
    the multipliers up to sign; anything else is undetermined."""
    sizes = [abs(m) for m in multipliers]
    start = top_run(len(sizes), lambda i: sizes[i] == 1)
    if start < len(sizes):
        return LimitDescriptor(kind="stabilized", group=group, level=start + 1)
    # the top multiplier is not +-1 here, so nonzero ones include a non-unit
    if group == FGAbGroup(1) and sizes and all(sizes):
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
        """Stabilization detection; never materializes a non-f.g. limit.

        The isomorphisms from the top map down give the limit, stabilized
        at the stage below the lowest of them.  Failing that, maps that
        are all maps of Z (``free_multiplier``) are decided by their
        multipliers (``multiplier_limit``), and anything else is
        undetermined.
        """
        if len(self.stages) < 3:
            raise ValueError("need at least 3 computed stages")
        start = top_run(len(self.maps), lambda i: self.maps[i].is_isomorphism())
        if start < len(self.maps):
            return LimitDescriptor(
                kind="stabilized",
                group=self.stages[start].canonical(),
                level=start + 1,
            )
        mults = []
        for h in self.maps:
            m = h.free_multiplier()
            if m is None:
                return LimitDescriptor(kind="undetermined", level=len(self.stages))
            mults.append(m)
        # on maps of Z, multiplier +-1 is an isomorphism: the top map's is not
        return multiplier_limit(FGAbGroup(1), mults)
