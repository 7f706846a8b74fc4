"""Dense matrices for the tests.

The library holds every matrix as sparse columns, one dict {row: nonzero}
per column.  Test literals and oracles are written densely: a matrix as a
list of rows, a presentation's relations as a list of dense columns.
``sparse`` is the one way from dense columns into the library's form, and
``dense`` and ``dense_columns`` the ways back; the rest is the dense
arithmetic the oracles do.
"""


def sparse(cols):
    """The library's sparse columns of a list of dense columns."""
    return [{i: x for i, x in enumerate(col) if x} for col in cols]


def dense_columns(cols, nrows):
    """The dense columns of sparse columns on ``nrows`` rows."""
    return [[col.get(i, 0) for i in range(nrows)] for col in cols]


def dense(cols, nrows):
    """The list of rows of the matrix of sparse columns on ``nrows`` rows."""
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def columns(a, ncols=None):
    """The dense columns of a list of rows; ``ncols`` gives their number
    when there is no row to read it from."""
    width = len(a[0]) if a else ncols or 0
    return [[row[j] for row in a] for j in range(width)]


def from_columns(cols, rows=None):
    """The list of rows of dense columns; ``rows`` gives their number
    when there is no column to read it from."""
    if not cols:
        return [[] for _ in range(rows)] if rows else []
    return [list(row) for row in zip(*cols)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_vec(a, v):
    """The product of a list of rows and a dense vector."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]
