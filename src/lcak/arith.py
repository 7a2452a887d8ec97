"""One arithmetic field for the package, one exact array type, and small
dense linear algebra.

Every quantity in the package is either *exact* (rational, closed under
+, -, *, /) or *float* (binary64, compared against a tolerance).  A frozen
:class:`Field` carries that choice with its tolerance: it builds scalars and
arrays of the right kind and holds the one tolerance rule.  A ``LieAlgebra``
holds its field and passes it on to structures, forms and tensors, so no
other module branches on the mode.

Float arrays are plain ``float64`` numpy arrays.  An exact array is a
:class:`QArray`: an object array ``num`` of Python ints over one positive int
``den``, in lowest terms, which is how FLINT stores rational matrices (W.
Hart, "Fast Library for Number Theory: an introduction", ICMS 2010).  It
supports the operators the package uses on float arrays (``@``, ``+``, ``-``,
``*``, ``.T``, indexing), so one expression serves both modes: a product
multiplies the integer numerators and the denominators once, a sum brings
both operands to the lcm of their denominators.  :meth:`Field.einsum` is
``np.einsum`` on the numerators.  Python ints cannot overflow, and there is
no int64 path.  Exact scalars are ``Fraction``s: one entry read out of a
``QArray``, ``Field.scalar`` and a determinant; ``np.asarray`` of a ``QArray``
is its Fraction array, so ``repr``, ``str`` and ``tolist`` are those of the
Fraction array.

The solvers take the field; they are written for the tiny systems that show
up here (dimensions <= ~70 coming from spaces of 2- and 3-forms on algebras of
dimension <= 8).  In exact mode each runs one fraction-free Gauss-Jordan
elimination on the integer numerators of a ``QArray`` and reads its answer
off the reduced rows and the pivot values; float mode uses the SVD, ``lstsq``
and ``eigvalsh``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateMetric

DEFAULT_TOL = 1e-9

_ZERO = Fraction(0)


def _lowest(num, den):
    """``num / den`` with the common factor of the entries and ``den`` divided out."""
    if den != 1:
        g = math.gcd(den, *num.ravel().tolist())
        if g != 1:
            return num // g, den // g
    return num, den


def _scaled(num, k):
    return num if k == 1 else num * k


def _wrap(num, den):
    """An array result as a QArray, a scalar one as a Fraction."""
    return QArray(num, den) if isinstance(num, np.ndarray) else Fraction(num, den)


def as_qarray(x):
    """``x`` as a :class:`QArray`, returned as is when it is one.

    Ints, Fractions and arrays of them are cleared to Python-int numerators
    over the lcm of their denominators; a float raises ``TypeError``.
    """
    if isinstance(x, QArray):
        return x
    a = np.asarray(x)
    if a.dtype.kind not in "iuO":
        raise TypeError(f"cannot use a {a.dtype} array in exact mode")
    flat = a.ravel().tolist()
    try:
        den = math.lcm(*{v.denominator for v in flat})
    except AttributeError:
        raise TypeError("cannot use an array with inexact entries in exact mode") from None
    nums = [v.numerator * (den // v.denominator) for v in flat]
    return QArray._raw(np.array(nums, dtype=object).reshape(a.shape), den)


def _combine(op):
    """``self op other`` for + and -, over the lcm of the denominators."""
    def combine(self, other):
        o = as_qarray(other)
        den = math.lcm(self.den, o.den)
        return _wrap(op(_scaled(self.num, den // self.den), _scaled(o.num, den // o.den)), den)
    return combine


def _rearranged(name):
    return lambda self, *args: QArray._raw(getattr(self.num, name)(*args), self.den)


def _product(op):
    """``self op other`` for * and @, over the product of the denominators."""
    def product(self, other):
        o = as_qarray(other)
        return _wrap(op(self.num, o.num), self.den * o.den)
    return product


def _compare(op):
    def compare(self, other):
        o = as_qarray(other)
        return op(self.num * o.den, o.num * self.den)
    return compare


class QArray:
    """An exact array: Python-int numerators ``num`` (an object array) over
    one positive int ``den``, kept in lowest terms.

    Operands of the arithmetic operators may be QArrays, ints, Fractions or
    arrays of them; a float operand raises ``TypeError``.  ``__array_ufunc__ =
    None`` makes numpy hand ``ndarray op QArray`` to the reflected method.
    Reading one entry gives a Fraction; ``np.asarray`` gives the Fraction
    array (``dtype=float`` gives each ``num / den`` correctly rounded).
    Assignment brings the array to the lcm of both denominators.
    """
    __slots__ = ("num", "den")
    __array_ufunc__ = None

    def __init__(self, num, den=1):
        num = np.asarray(num, dtype=object)
        if den < 0:
            num, den = -num, -den
        self.num, self.den = _lowest(num, den)

    @classmethod
    def _raw(cls, num, den):  # num / den already in lowest terms
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    # -- shape -------------------------------------------------------------------

    shape = property(lambda self: self.num.shape)
    flags = property(lambda self: self.num.flags)
    T = property(lambda self: QArray._raw(self.num.T, self.den))
    # the same entries rearranged, as numpy does it
    transpose, reshape, ravel, copy = (_rearranged(name) for name in
                                       ("transpose", "reshape", "ravel", "copy"))

    def __len__(self):
        return len(self.num)

    def trace(self, offset=0, axis1=0, axis2=1):
        return _wrap(self.num.trace(offset, axis1, axis2), self.den)

    # -- entries -----------------------------------------------------------------

    def __getitem__(self, key):
        return _wrap(self.num[key], self.den)

    def __setitem__(self, key, value):
        if not self.num.flags.writeable:
            raise ValueError("assignment destination is read-only")
        v = as_qarray(value)
        den = math.lcm(self.den, v.den)
        num = _scaled(self.num, den // self.den)
        num[key] = _scaled(v.num[()], den // v.den)  # [()]: a scalar's int, not a 0-d array
        self.num, self.den = _lowest(num, den)

    def __array__(self, dtype=None, copy=None):
        flat, den = self.num.ravel().tolist(), self.den
        if dtype is not None and np.dtype(dtype).kind == "f":
            return np.array([n / den for n in flat], dtype=dtype).reshape(self.shape)
        return np.array([_ZERO if n == 0 else Fraction(n, den) for n in flat],
                        dtype=object).reshape(self.shape)

    def tolist(self):
        return np.asarray(self).tolist()

    def __repr__(self):
        return repr(np.asarray(self))

    def __str__(self):
        return str(np.asarray(self))

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------------

    __add__ = __radd__ = _combine(operator.add)
    __sub__ = _combine(operator.sub)
    __rsub__ = _combine(lambda a, b: b - a)
    __mul__ = __rmul__ = _product(operator.mul)
    __matmul__ = _product(operator.matmul)
    __rmatmul__ = _product(lambda a, b: b @ a)

    def __neg__(self):
        return QArray._raw(np.asarray(-self.num, dtype=object), self.den)

    def __abs__(self):
        return QArray._raw(np.asarray(abs(self.num), dtype=object), self.den)

    __eq__ = _compare(operator.eq)
    __ne__ = _compare(operator.ne)
    __le__ = _compare(operator.le)


@dataclass(frozen=True)
class Field:
    """Exact (QArray) or float arithmetic, with the float tolerance ``tol``.

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
        """A new array of this field's scalars from nested lists or an array; a
        list of QArrays is stacked on its numerators, over their lcm denominator."""
        if not self.exact:
            return np.array(values, dtype=float)
        if isinstance(values, QArray):
            return values.copy()
        if isinstance(values, list) and values and all(isinstance(v, QArray) for v in values):
            den = math.lcm(*(v.den for v in values))
            return QArray(np.array([_scaled(v.num, den // v.den) for v in values]), den)
        a = np.array(values, dtype=object)
        return as_qarray(np.array([v if type(v) in (int, Fraction) else self.scalar(v)
                                   for v in a.flat], dtype=object).reshape(a.shape))

    def einsum(self, spec, *operands):
        """``np.einsum(spec, *operands)``; in exact mode the operands' integer
        numerators are contracted over the product of their denominators."""
        if not self.exact:
            return np.einsum(spec, *operands)
        qs = [as_qarray(a) for a in operands]
        return _wrap(np.einsum(spec, *(q.num for q in qs)), math.prod(q.den for q in qs))

    def scatter(self, shape, index, values):
        """Zeros of ``shape`` with ``values`` summed into the entries ``index``
        (``np.add.at``)."""
        values = as_qarray(values) if self.exact else values
        out = np.zeros(shape, dtype=object if self.exact else float)
        np.add.at(out, index, values.num if self.exact else values)
        return QArray(out, values.den) if self.exact else out

    def zeros(self, *shape):
        return QArray._raw(np.zeros(shape, dtype=object), 1) if self.exact else np.zeros(shape)

    def eye(self, n):
        return QArray._raw(np.eye(n, dtype=int).astype(object), 1) if self.exact else np.eye(n)

    def bound(self, scale=1.0):
        return 0 if self.exact else self.tol * max(1.0, float(scale))

    def is_zero(self, x, scale=1.0):
        """Whether every entry of ``x`` vanishes, within ``bound(scale)``."""
        if self.exact:
            return bool(np.all((x if isinstance(x, QArray) else np.asarray(x)) == 0))
        return max_abs(x) <= self.bound(scale)

    def is_nondegenerate(self, m):
        if self.exact:
            return determinant(m, self) != 0
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            return False
        s = np.linalg.svd(m, compute_uv=False)
        return bool(s[-1] > self.tol * s[0])


def all_exact(values) -> bool:
    """Whether every entry of ``values`` (a QArray, an array or nested lists) is
    an int or a Fraction."""
    return isinstance(values, QArray) or all(
        isinstance(v, (int, Fraction)) and not isinstance(v, bool)
        for v in np.asarray(values, dtype=object).ravel().tolist())


def parse_scalar(x) -> Fraction:
    """The rational ``x`` is written as: a string as written ("3", "-1/4",
    "0.25", "1e-3", "1e400"), an int or a Fraction as it is, and a float (how
    JSON numbers arrive) as the shortest decimal that prints it, so 0.1 is
    1/10.  A bool, NaN or an infinity raises ``ValueError``."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a number")
    return Fraction(repr(float(x)) if isinstance(x, float) else x)


def format_scalar(x) -> str:
    """Serialize a scalar deterministically ("1/4" for exact, repr for float)."""
    return str(x) if isinstance(x, (int, Fraction)) else repr(float(x))


def to_float(x) -> float:
    """``float(x)``, correctly rounded, for an exact residual to be reported:
    +-inf past the float range, and never 0.0 when ``x`` is not 0."""
    try:
        y = float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    return y if y or not x else math.copysign(math.ulp(0.0), y)


def max_abs(a) -> float:
    """Largest absolute entry, as a float (exact values embed faithfully: a
    QArray gives ``max |num| / den`` in int true division, correctly rounded,
    and, as :func:`to_float`, inf past the float range and never 0.0 when nonzero)."""
    if isinstance(a, QArray):
        top = max(map(abs, a.num.ravel().tolist()), default=0)
        try:
            y = top / a.den
        except OverflowError:
            return math.inf
        return y if y or not top else math.ulp(0.0)
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _eliminate(num):
    """Fraction-free Gauss-Jordan elimination of the integer matrix ``num``
    (E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968), carried above the pivot:
    with pivot p in row r, every other row becomes ``(p * row - row[c] *
    row_r) // d``, d the previous pivot value, exact by Sylvester's identity.

    Returns the pivot rows, which over the last pivot value are the reduced
    echelon form, the pivot columns, the pivot values ``[1, p_1, ...]`` and
    the number of row exchanges.
    """
    rows = num.tolist()
    nrows, ncols = num.shape
    pivots, values, swaps = [], [1], 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            swaps += 1
        pivot_row, p, d = rows[r], rows[r][c], values[-1]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
            elif not f and p != d:
                rows[i] = [p * x // d for x in row]
        pivots.append(c)
        values.append(p)
    r = len(pivots)
    return np.array(rows[:r], dtype=object).reshape(r, ncols), pivots, values, swaps


def _svd_rank(s, field):
    return int(np.sum(s > field.bound(s[0] if s.size else 0.0)))


def nullspace(a, field: Field):
    """Basis of the right nullspace, as a list of vectors."""
    n, m = np.shape(a)
    if n == 0:
        return list(field.eye(m))
    if field.exact:
        rows, pivots, values, _ = _eliminate(as_qarray(a).num)
        basis = []
        for c in (c for c in range(m) if c not in pivots):
            v = np.zeros(m, dtype=object)
            v[c], v[pivots] = values[-1], -rows[:, c]
            basis.append(QArray(v, values[-1]))
        return basis
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return list(vt[_svd_rank(s, field):])


def row_space(a, field: Field):
    """Basis of the row space: the nonzero rows of the reduced echelon form
    in exact mode, the leading right singular vectors in float mode."""
    if 0 in np.shape(a):
        return []
    if field.exact:
        rows, _, values, _ = _eliminate(as_qarray(a).num)
        return [QArray(row, values[-1]) for row in rows]
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return list(vt[:_svd_rank(s, field)])


def rank(a, field: Field) -> int:
    return len(row_space(a, field))


def _solve(a, b):
    """The solution of ``a x = b`` with every free unknown 0, read off the
    elimination of ``[a | b]``; None when the system is inconsistent."""
    den, m = math.lcm(a.den, b.den), a.shape[1]
    rows, pivots, values, _ = _eliminate(np.column_stack(
        [_scaled(a.num, den // a.den), _scaled(b.num, den // b.den)]))
    if m in pivots:
        return None
    x = np.zeros(m, dtype=object)
    x[pivots] = rows[:, m]
    return QArray(x, values[-1])


def solve_least_squares(a, b, field: Field):
    """Solve ``a x = b``; fall back to least squares when inconsistent.

    Returns ``(x, residual_vector)``.  In exact mode an exact solution is
    found by elimination when one exists (residual identically zero);
    otherwise the normal equations are solved exactly and the nonzero
    residual is reported.
    """
    if field.exact:
        a, b = as_qarray(a), as_qarray(b)
        x = _solve(a, b)
        if x is None:  # inconsistent: solve the normal equations
            x = _solve(a.T @ a, a.T @ b)
    else:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    return x, b - a @ x


def invert(a, field: Field):
    if not field.exact:
        return np.linalg.inv(np.asarray(a, dtype=float))
    a = as_qarray(a)
    n = len(a)
    rows, pivots, values, _ = _eliminate(np.hstack([a.num, np.eye(n, dtype=int).astype(object)]))
    if pivots != list(range(n)):
        raise DegenerateMetric("matrix not invertible")
    # [num | I] reduces to [I | num^-1], and a^-1 = den * num^-1
    return QArray(a.den * rows[:, n:], values[-1])


def determinant(a, field: Field):
    if not field.exact:
        return float(np.linalg.det(np.asarray(a, dtype=float)))
    a = as_qarray(a)
    _, pivots, values, swaps = _eliminate(a.num)
    return Fraction((-1) ** swaps * values[-1] if len(pivots) == len(a) else 0, a.den ** len(a))


def is_positive_definite(a, field: Field) -> bool:
    """Sylvester's criterion in exact mode, eigenvalues in float mode.

    Assumes ``a`` symmetric.  Without row exchanges, the pivot values of one
    elimination are the leading minors (times powers of the denominator).
    """
    if field.exact:
        _, pivots, values, swaps = _eliminate(as_qarray(a).num)
        return swaps == 0 and len(pivots) == len(a) and min(values) > 0
    w = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    if w.size == 0:
        return True
    return bool(np.min(w) > field.bound(np.max(np.abs(w))))


def rationalize(x, max_denominator=64):
    """Nearest small rational; used to lift float certificates to exact ones."""
    return Fraction(float(x)).limit_denominator(max_denominator)
