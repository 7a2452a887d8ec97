"""Dual-mode scalar arithmetic and small dense linear algebra.

Every quantity in the package is either *exact* (``fractions.Fraction``,
closed under +,-,*,/) or *float* (binary64, compared against a tolerance).
Matrices are numpy arrays: ``dtype=object`` filled with Fractions in exact
mode, ``float64`` otherwise, so ``@``, ``+`` and transposition work in both
modes with the same code paths.

The solvers below are written for the tiny systems that show up here
(dimensions <= ~70 coming from spaces of 2- and 3-forms on algebras of
dimension <= 8); nothing is optimized beyond that.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DegenerateMetric

DEFAULT_TOL = 1e-9


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact_scalar(v) for v in values)


def as_scalar(x, exact: bool):
    """Coerce ``x`` into the requested arithmetic mode."""
    if exact:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot use {x!r} in exact mode")
    return float(x)


def parse_scalar(text):
    """Parse "3", "-1/4" as Fractions and "0.25" as float."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        return text
    s = str(text).strip()
    if "/" in s or ("." not in s and "e" not in s.lower()):
        return Fraction(s)
    return float(s)


def format_scalar(x) -> str:
    """Serialize a scalar deterministically ("1/4" for exact, repr for float)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def zeros_matrix(n, m, exact: bool):
    if exact:
        a = np.empty((n, m), dtype=object)
        a[:] = Fraction(0)
        return a
    return np.zeros((n, m))


def zeros_vector(n, exact: bool):
    if exact:
        a = np.empty(n, dtype=object)
        a[:] = Fraction(0)
        return a
    return np.zeros(n)


def identity_matrix(n, exact: bool):
    a = zeros_matrix(n, n, exact)
    one = Fraction(1) if exact else 1.0
    for i in range(n):
        a[i, i] = one
    return a


def to_matrix(rows, exact: bool):
    rows = [list(r) for r in rows]
    n, m = len(rows), len(rows[0]) if rows else 0
    a = zeros_matrix(n, m, exact)
    for i, r in enumerate(rows):
        if len(r) != m:
            raise ValueError("ragged matrix")
        for j, v in enumerate(r):
            a[i, j] = as_scalar(v, exact)
    return a


def to_vector(entries, exact: bool):
    a = zeros_vector(len(list(entries)), exact)
    for i, v in enumerate(entries):
        a[i] = as_scalar(v, exact)
    return a


def max_abs(a) -> float:
    """Largest absolute entry, as a float (exact values embed faithfully)."""
    flat = np.asarray(a).ravel()
    if flat.size == 0:
        return 0.0
    return max(abs(float(v)) for v in flat)


def matrices_equal(a, b, tol=0.0) -> bool:
    return max_abs(np.asarray(a) - np.asarray(b)) <= tol


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _rref(rows):
    """Row-reduce a list of Fraction rows in place; return pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if rows[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _as_fraction_rows(a):
    return [[Fraction(x) for x in row] for row in np.asarray(a)]


def nullspace(a, exact: bool, tol: float = DEFAULT_TOL):
    """Basis of the right nullspace, as a list of vectors."""
    a = np.asarray(a)
    n, m = a.shape
    if n == 0:
        return [identity_matrix(m, exact)[i] for i in range(m)]
    if exact:
        rows = _as_fraction_rows(a)
        pivots = _rref(rows)
        free = [c for c in range(m) if c not in pivots]
        basis = []
        for fc in free:
            v = zeros_vector(m, True)
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        return basis
    u, s, vt = np.linalg.svd(a.astype(float))
    cutoff = tol * max(1.0, (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return [vt[i] for i in range(rank, m)]


def rank(a, exact: bool, tol: float = DEFAULT_TOL) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if exact:
        rows = _as_fraction_rows(a)
        return len(_rref(rows))
    s = np.linalg.svd(a.astype(float), compute_uv=False)
    cutoff = tol * max(1.0, (s[0] if s.size else 0.0))
    return int(np.sum(s > cutoff))


def solve_least_squares(a, b, exact: bool):
    """Solve ``a x = b``; fall back to least squares when inconsistent.

    Returns ``(x, residual_vector)``.  In exact mode an exact solution is
    found by elimination when one exists (residual identically zero);
    otherwise the normal equations are solved exactly and the nonzero
    residual is reported.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    if exact:
        aug = [[Fraction(a[i, j]) for j in range(m)] + [Fraction(b[i])] for i in range(n)]
        pivots = _rref(aug)
        if m not in pivots:  # consistent system
            x = zeros_vector(m, True)
            for r, pc in enumerate(pivots):
                x[pc] = aug[r][m]
            return x, b - a @ x
        at = a.T
        gram = at @ a
        rhs = at @ b
        aug2 = [[Fraction(gram[i, j]) for j in range(m)] + [Fraction(rhs[i])] for i in range(m)]
        piv2 = _rref(aug2)
        x = zeros_vector(m, True)
        for r, pc in enumerate(piv2):
            if pc < m:
                x[pc] = aug2[r][m]
        return x, b - a @ x
    af = a.astype(float)
    bf = b.astype(float)
    x = np.linalg.lstsq(af, bf, rcond=None)[0]
    return x, bf - af @ x


def solve_square(a, b, exact: bool):
    """Solve an invertible square system exactly or in floats."""
    x, res = solve_least_squares(a, b, exact)
    if max_abs(res) > 0 and exact:
        raise DegenerateMetric("singular square system")
    return x


def invert(a, exact: bool):
    a = np.asarray(a)
    n = a.shape[0]
    if exact:
        aug = [[Fraction(a[i, j]) for j in range(n)]
               + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
               for i in range(n)]
        pivots = _rref(aug)
        if pivots != list(range(n)):
            raise DegenerateMetric("matrix not invertible")
        inv = zeros_matrix(n, n, True)
        for i in range(n):
            for j in range(n):
                inv[i, j] = aug[i][n + j]
        return inv
    return np.linalg.inv(a.astype(float))


def determinant(a, exact: bool):
    a = np.asarray(a)
    n = a.shape[0]
    if not exact:
        return float(np.linalg.det(a.astype(float)))
    rows = _as_fraction_rows(a)
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if rows[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        pv = rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def is_positive_definite(a, exact: bool, tol: float = DEFAULT_TOL) -> bool:
    """Sylvester's criterion in exact mode, eigenvalues in float mode.

    Assumes ``a`` symmetric.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if exact:
        for k in range(1, n + 1):
            if determinant(a[:k, :k], True) <= 0:
                return False
        return True
    w = np.linalg.eigvalsh(a.astype(float))
    if w.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(np.min(w) > tol * scale)


def gram_schmidt(g, exact: bool = False):
    """A g-orthonormal frame, rows of the returned matrix (float only)."""
    gf = np.asarray(g, dtype=float)
    n = gf.shape[0]
    basis = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for u in basis:
            v = v - (u @ gf @ v) * u
        nrm = float(v @ gf @ v)
        if nrm <= 0:
            raise DegenerateMetric("metric not positive definite")
        basis.append(v / nrm ** 0.5)
    return np.array(basis)


def rationalize(x, max_denominator=64):
    """Nearest small rational; used to lift float certificates to exact ones."""
    return Fraction(float(x)).limit_denominator(max_denominator)
