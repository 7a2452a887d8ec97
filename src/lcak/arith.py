"""One arithmetic field for the package, and small dense linear algebra.

Every quantity in the package is either *exact* (``fractions.Fraction``,
closed under +,-,*,/) or *float* (binary64, compared against a tolerance).
A frozen :class:`Field` carries that choice with its tolerance: it builds
scalars and arrays of the right kind and holds the one tolerance rule.  A
``LieAlgebra`` holds its field and passes it on to structures, forms and
tensors, so no other module branches on the mode.  Matrices are numpy
arrays: ``dtype=object`` filled with Fractions in exact mode, ``float64``
otherwise, so ``@``, ``+`` and transposition work in both modes with the
same code paths.

Matrix products go through :meth:`Field.matmul` (the ``@`` chain in float
mode) and contractions through :meth:`Field.einsum` (``np.einsum``).  In
exact mode each operand becomes Python-int :class:`Numerators` over the lcm
of its denominators, the integers are multiplied (they cannot overflow) and
each output entry is divided once by the product of the denominators, as
FLINT multiplies rational matrices (W. Hart, "Fast Library for Number
Theory: an introduction", ICMS 2010).  ``matmul_num``/``einsum_num`` skip
the division, so sums of products add integers before one division.
Operands may be ``Numerators``; read-only arrays cache theirs: the algebra's
``structure_num``, a structure's ``J_num``, ``g_num``, ``g_inv_num`` and
``f_num``, and its connection's ``gamma_num`` and ``DJ_num``.

The solvers below take the field; they are written for the tiny systems
that show up here (dimensions <= ~70 coming from spaces of 2- and 3-forms
on algebras of dimension <= 8) and eliminate over Fractions.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric

DEFAULT_TOL = 1e-9

_ZERO = Fraction(0)


class Numerators(NamedTuple):
    """An array as ``num / den``: Python-int numerators over one denominator
    in exact mode, the array itself over 1 in float mode."""
    num: np.ndarray
    den: int

    @property
    def T(self):
        return Numerators(self.num.T, self.den)


def _plain(a):
    """A float-mode operand as an array."""
    if isinstance(a, Numerators):
        return a.num if a.den == 1 else a.num / a.den
    return a


@dataclass(frozen=True)
class Field:
    """Exact (Fraction) or float arithmetic, with the float tolerance ``tol``.

    ``bound(scale)`` is the tolerance rule: 0 in exact mode and
    ``tol * max(1, scale)`` in float mode.  Nondegeneracy is decided by
    ``det != 0`` in exact mode and by the scale-free singular value ratio
    ``sigma_min > tol * sigma_max`` in float mode.
    """
    exact: bool
    tol: float = DEFAULT_TOL

    def scalar(self, x, den=1):
        """``x / den`` in this field; exact mode takes ints, Fractions and
        fraction strings, and refuses floats."""
        if not self.exact:
            return float(x) / den
        if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
            raise TypeError(f"cannot use {x!r} in exact mode")
        return Fraction(x) if den == 1 else Fraction(x) / den

    def array(self, values):
        """An array of this field's scalars from nested lists or an array."""
        if not self.exact:
            return np.array(values, dtype=float)
        a = np.array(values, dtype=object)
        return np.array([self.scalar(v) for v in a.flat], dtype=object).reshape(a.shape)

    def numerators(self, a):
        """``a`` as :class:`Numerators`, returned as is when it already is.

        In exact mode ``num`` is an object array of Python-int numerators
        over ``den``, the lcm of the entries' denominators; a float entry
        raises ``TypeError``.  In float mode this is ``(a, 1)``.
        """
        if isinstance(a, Numerators):
            return a
        a = np.asarray(a)
        if not self.exact:
            return Numerators(a, 1)
        flat = a.ravel().tolist()
        try:
            den = math.lcm(*{x.denominator for x in flat})
        except AttributeError:
            raise TypeError(f"cannot use a {a.dtype} array with inexact entries "
                            "in exact mode") from None
        nums = np.array([x.numerator * (den // x.denominator) for x in flat], dtype=object)
        return Numerators(nums.reshape(a.shape), den)

    def fractions(self, num, den=1):
        """``num / den`` in this field: one Fraction per entry of an integer
        array (or scalar) in exact mode, ``num`` (divided when ``den != 1``)
        in float mode."""
        if not self.exact:
            return num if den == 1 else num / den
        if not isinstance(num, np.ndarray):
            return _ZERO if num == 0 else Fraction(num, den)
        return np.array([_ZERO if v == 0 else Fraction(v, den) for v in num.ravel().tolist()],
                        dtype=object).reshape(num.shape)

    def _chain(self, combine, operands):
        if not self.exact:
            return Numerators(combine(*map(_plain, operands)), 1)
        nums = [self.numerators(a) for a in operands]
        return Numerators(combine(*(n.num for n in nums)), math.prod(n.den for n in nums))

    def matmul_num(self, *ms):
        """``ms[0] @ ms[1] @ ...`` as undivided :class:`Numerators`."""
        return self._chain(lambda *a: reduce(operator.matmul, a), ms)

    def einsum_num(self, spec, *operands):
        """``np.einsum(spec, *operands)`` as undivided :class:`Numerators`."""
        return self._chain(lambda *a: np.einsum(spec, *a), operands)

    def matmul(self, *ms):
        """``ms[0] @ ms[1] @ ...`` from left to right; in exact mode the
        chain runs on the operands' integer numerators and each output entry
        is divided once by the product of their denominators."""
        return self.fractions(*self.matmul_num(*ms))

    def einsum(self, spec, *operands):
        """``np.einsum(spec, *operands)``; in exact mode the operands'
        integer numerators are contracted and each output entry is divided
        once by the product of their denominators."""
        return self.fractions(*self.einsum_num(spec, *operands))

    def zeros(self, *shape):
        return np.full(shape, Fraction(0), dtype=object) if self.exact else np.zeros(shape)

    def eye(self, n):
        return self.array(np.eye(n, dtype=int))

    def bound(self, scale=1.0):
        return 0 if self.exact else self.tol * max(1.0, float(scale))

    def is_zero(self, x, scale=1.0):
        """Whether every entry of ``x`` vanishes, within ``bound(scale)``."""
        if self.exact:
            return bool(np.all(np.asarray(x) == 0))
        return max_abs(x) <= self.bound(scale)

    def is_nondegenerate(self, m):
        if self.exact:
            return determinant(m, self) != 0
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            return False
        s = np.linalg.svd(m, compute_uv=False)
        return bool(s[-1] > self.tol * s[0])


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact_scalar(v) for v in values)


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


def _svd_rank(s, tol):
    return int(np.sum(s > tol * max(1.0, (s[0] if s.size else 0.0))))


def nullspace(a, field: Field):
    """Basis of the right nullspace, as a list of vectors."""
    a = np.asarray(a)
    n, m = a.shape
    if n == 0:
        return list(field.eye(m))
    if field.exact:
        rows = _as_fraction_rows(a)
        pivots = _rref(rows)
        free = [c for c in range(m) if c not in pivots]
        basis = []
        for fc in free:
            v = field.zeros(m)
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        return basis
    u, s, vt = np.linalg.svd(a.astype(float))
    return list(vt[_svd_rank(s, field.tol):])


def row_space(a, field: Field):
    """Basis of the row space: the nonzero rows of the reduced echelon form
    in exact mode, the leading right singular vectors in float mode."""
    a = np.asarray(a)
    if a.size == 0:
        return []
    if field.exact:
        rows = _as_fraction_rows(a)
        return [np.array(rows[r], dtype=object) for r in range(len(_rref(rows)))]
    u, s, vt = np.linalg.svd(a.astype(float))
    return list(vt[:_svd_rank(s, field.tol)])


def rank(a, field: Field) -> int:
    return len(row_space(a, field))


def solve_least_squares(a, b, field: Field):
    """Solve ``a x = b``; fall back to least squares when inconsistent.

    Returns ``(x, residual_vector)``.  In exact mode an exact solution is
    found by elimination when one exists (residual identically zero);
    otherwise the normal equations are solved exactly and the nonzero
    residual is reported.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    if field.exact:
        aug = [[Fraction(a[i, j]) for j in range(m)] + [Fraction(b[i])] for i in range(n)]
        pivots = _rref(aug)
        if m not in pivots:  # consistent system
            x = field.zeros(m)
            for r, pc in enumerate(pivots):
                x[pc] = aug[r][m]
            return x, b - a @ x
        at = a.T
        gram = at @ a
        rhs = at @ b
        aug2 = [[Fraction(gram[i, j]) for j in range(m)] + [Fraction(rhs[i])] for i in range(m)]
        piv2 = _rref(aug2)
        x = field.zeros(m)
        for r, pc in enumerate(piv2):
            if pc < m:
                x[pc] = aug2[r][m]
        return x, b - a @ x
    af = a.astype(float)
    bf = b.astype(float)
    x = np.linalg.lstsq(af, bf, rcond=None)[0]
    return x, bf - af @ x


def solve_square(a, b, field: Field):
    """Solve an invertible square system exactly or in floats."""
    x, res = solve_least_squares(a, b, field)
    if max_abs(res) > 0 and field.exact:
        raise DegenerateMetric("singular square system")
    return x


def invert(a, field: Field):
    a = np.asarray(a)
    n = a.shape[0]
    if field.exact:
        aug = [[Fraction(a[i, j]) for j in range(n)]
               + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
               for i in range(n)]
        pivots = _rref(aug)
        if pivots != list(range(n)):
            raise DegenerateMetric("matrix not invertible")
        return np.array([row[n:] for row in aug], dtype=object)
    return np.linalg.inv(a.astype(float))


def determinant(a, field: Field):
    a = np.asarray(a)
    n = a.shape[0]
    if not field.exact:
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


def is_positive_definite(a, field: Field) -> bool:
    """Sylvester's criterion in exact mode, eigenvalues in float mode.

    Assumes ``a`` symmetric.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if field.exact:
        for k in range(1, n + 1):
            if determinant(a[:k, :k], field) <= 0:
                return False
        return True
    w = np.linalg.eigvalsh(a.astype(float))
    if w.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(np.min(w) > field.tol * scale)


def rationalize(x, max_denominator=64):
    """Nearest small rational; used to lift float certificates to exact ones."""
    return Fraction(float(x)).limit_denominator(max_denominator)
