"""The Fraction-row exact solvers, kept as the reference for ``lcak.arith``.

Each solver turns its matrix into lists of ``Fraction``s, row-reduces them
with one division per pivot row and one gcd per entry, and builds its answer
with ``Field.array``; positive definiteness is Sylvester's criterion with one
elimination per leading minor.  Nothing below calls the integer elimination
of the library.
"""
from fractions import Fraction

import numpy as np

from lcak.arith import Field
from lcak.errors import DegenerateMetric

EXACT = Field(True)


def rref(rows):
    """Row-reduce a list of Fraction rows in place; return the pivot columns
    and the product of the pivots, negated once per row swap (the
    determinant of a square matrix of full rank)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if rows[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        rows[r] = [x / pv if x else x for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y if y else x for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, det


def fraction_rows(a):
    return [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]


def nullspace(a):
    a = np.asarray(a)
    n, m = a.shape
    if n == 0:
        return list(EXACT.eye(m))
    rows = fraction_rows(a)
    pivots = rref(rows)[0]
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(EXACT.array(v))
    return basis


def row_space(a):
    a = np.asarray(a)
    if a.size == 0:
        return []
    rows = fraction_rows(a)
    return [EXACT.array(rows[r]) for r in range(len(rref(rows)[0]))]


def solve_least_squares(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m = a.shape[1]
    aug = fraction_rows(np.column_stack([a, b]))
    pivots = rref(aug)[0]
    if m in pivots:  # inconsistent: solve the normal equations
        aug = fraction_rows(np.column_stack([a.T @ a, a.T @ b]))
        pivots = rref(aug)[0]
    x = [0] * m
    for r, pc in enumerate(pivots):
        if pc < m:
            x[pc] = aug[r][m]
    x = EXACT.array(x)
    return x, b - a @ x


def invert(a):
    a = np.asarray(a)
    n = a.shape[0]
    aug = fraction_rows(np.hstack([a, np.eye(n, dtype=int)]))
    if rref(aug)[0] != list(range(n)):
        raise DegenerateMetric("matrix not invertible")
    return EXACT.array([row[n:] for row in aug])


def determinant(a):
    a = np.asarray(a)
    pivots, det = rref(fraction_rows(a))
    return det if len(pivots) == a.shape[0] else Fraction(0)


def is_positive_definite(a):
    """Sylvester's criterion: every leading minor is positive."""
    a = np.asarray(a)
    return all(determinant(a[:k, :k]) > 0 for k in range(1, a.shape[0] + 1))
