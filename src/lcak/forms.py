"""Exterior algebra of left-invariant forms on a Lie algebra.

A k-form is one vector over the algebra's field (``alg.field``): entry p is
the coefficient on e^I for the p-th index tuple I of
``combinations(range(dim), k)``.  Each operation is one gather-multiply-
scatter over the wedge table of (dim, k, l), cached at module level: rows
(left, right, out, sign) with e^left ^ e^right = sign e^out.  Read with
k = 1 it is the contraction table, i_{e_i} e^out = sign e^right.  Gathers
skip the rows where either operand is zero.  Conventions used throughout:

* d is the Chevalley-Eilenberg differential, ``d alpha (X, Y) = -alpha([X, Y])``
  on 1-forms, extended as an antiderivation: ``d = sum_m de^m ^ i_{e_m}``.
  Its matrix on Lambda^k is scattered from the structure constants over
  :func:`d_table` and cached on the algebra (``LieAlgebra.d_matrix``).
* ``contract(X, alpha) = alpha(X, . , ..., .)``.
* ``<e^I, e^J> = det(g^{-1}[I, J])``: the k-th compound matrix of g^{-1}
  (Horn and Johnson, *Matrix Analysis*, 2nd ed., section 0.8.1), built by
  Laplace expansion over the contraction table.
* ``hodge_star`` uses the volume form ``F^n / n!`` of the ambient
  almost-Hermitian structure, i.e. the orientation making it positive.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from math import comb

import numpy as np

from .arith import Numerators, max_abs
from .errors import DegenerateMetric, DimensionMismatch, IndexOutOfRange, LcakError


@cache
def _keys(dim, k):
    """The increasing index tuples of Lambda^k in storage order, and each one's position."""
    keys = list(combinations(range(dim), k)) if k >= 0 else []
    return keys, {key: p for p, key in enumerate(keys)}


@cache
def _pairs(dim):  # (rows, cols) of the pairs i < j, in storage order
    return np.triu_indices(dim, 1)


@cache
def _wedge_table(dim, k, l):
    """Arrays (left, right, out, sign): e^left ^ e^right = sign e^out."""
    pos = _keys(dim, k + l)[1]
    rows = [(p, q, pos[tuple(sorted(a + b))], (-1) ** sum(x > y for x in a for y in b))
            for p, a in enumerate(_keys(dim, k)[0])
            for q, b in enumerate(_keys(dim, l)[0]) if not set(a) & set(b)]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T)


@cache
def d_table(dim, k):
    """Arrays (m, i, j, out, in, sign) for d on Lambda^k: d = sum_m de^m ^ i_{e_m}
    with de^m = -sum_{i<j} c^m_ij e^ij, so each row adds -sign c^m_ij to D[out, in]."""
    m, rest, inp, s = _wedge_table(dim, 1, k - 1)      # i_{e_m} e^in = s e^rest
    pair, rest2, out, t = _wedge_table(dim, 2, k - 1)  # e^pair ^ e^rest = t e^out
    a, b = np.nonzero(rest[:, None] == rest2[None, :])
    i, j = _pairs(dim)
    return m[a], i[pair[b]], j[pair[b]], out[b], inp[a], s[a] * t[b]


def _product(alg, degree, out, sign, x, y):
    """The ``degree``-form with ``sign * x * y`` summed into the entries
    ``out``, over the rows where neither x nor y is zero."""
    keep = (x != 0) & (y != 0)
    vec = alg.field.zeros(comb(alg.dim, degree))
    np.add.at(vec, out[keep], sign[keep] * x[keep] * y[keep])
    return KForm._of(alg, degree, vec)


class KForm:
    """A left-invariant k-form: its coefficient vector ``vec`` over Lambda^k."""

    __slots__ = ("alg", "degree", "vec")

    def __init__(self, alg, degree, coeffs=None):
        """``coeffs`` maps 0-based index tuples to coefficients; each key is
        sorted with its permutation sign and keys with a repeated index vanish."""
        if degree < 0:
            raise LcakError("negative form degree")
        self.alg, self.degree = alg, int(degree)
        self.vec = alg.field.zeros(comb(alg.dim, self.degree))
        pos = _keys(alg.dim, self.degree)[1]
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DimensionMismatch("multi-index length != degree")
            if not all(0 <= i < alg.dim for i in key):
                raise IndexOutOfRange(f"form index outside 0..{alg.dim - 1} in {key}")
            if len(set(key)) == degree:
                sign = (-1) ** sum(x > y for x, y in combinations(key, 2))
                self.vec[pos[tuple(sorted(key))]] += sign * val

    @classmethod
    def _of(cls, alg, degree, vec):
        form = object.__new__(cls)
        form.alg, form.degree, form.vec = alg, degree, vec
        return form

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, alg, terms):
        """Build from {(1-based indices): coefficient}."""
        degree = len(next(iter(terms))) if terms else 0
        return cls(alg, degree, {tuple(i - 1 for i in idx): alg.field.scalar(val)
                                 for idx, val in terms.items()})

    @classmethod
    def basis_one_form(cls, alg, i):
        """e^i, 0-based."""
        return cls(alg, 1, {(i,): alg.field.scalar(1)})

    @classmethod
    def from_vector(cls, alg, v):
        """Degree-1 form with components v (covector coefficients)."""
        v = np.array(v)
        if v.shape != (alg.dim,):
            raise DimensionMismatch("vector length != dim")
        return cls._of(alg, 1, v)

    @classmethod
    def from_matrix(cls, alg, m):
        """Degree-2 form from an antisymmetric component matrix."""
        return cls._of(alg, 2, np.asarray(m)[_pairs(alg.dim)])

    # -- structural helpers ---------------------------------------------------

    @property
    def coeffs(self):
        """The nonzero coefficients, keyed by increasing 0-based index tuples."""
        keys = _keys(self.alg.dim, self.degree)[0]
        return {keys[p]: v for p, v in enumerate(self.vec.tolist()) if v != 0}

    def _check_same_algebra(self, other):
        if self.alg is not other.alg and self.alg.dim != other.alg.dim:
            raise DimensionMismatch("forms live on different algebras")

    def _same_degree(self, other):
        self._check_same_algebra(other)
        if self.degree != other.degree:
            raise DimensionMismatch("cannot add forms of different degree")
        return self.degree

    def is_zero(self, tol=0.0):
        return bool(np.all(np.abs(self.vec) <= tol))

    def max_abs(self) -> float:
        return max_abs(self.vec)

    def vector(self):
        """Degree-1 component vector."""
        if self.degree != 1:
            raise DimensionMismatch("vector() needs a 1-form")
        return self.vec.copy()

    def matrix(self):
        """Degree-2 antisymmetric component matrix."""
        if self.degree != 2:
            raise DimensionMismatch("matrix() needs a 2-form")
        rows, cols = _pairs(self.alg.dim)
        m = self.alg.field.zeros(self.alg.dim, self.alg.dim)
        m[rows, cols], m[cols, rows] = self.vec, 0 - self.vec  # 0 - 0.0 is +0.0
        return m

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        return KForm._of(self.alg, self._same_degree(other), self.vec + other.vec)

    def __sub__(self, other):
        return KForm._of(self.alg, self._same_degree(other), self.vec - other.vec)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        return KForm._of(self.alg, self.degree, scalar * self.vec)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.degree == other.degree and (self - other).is_zero()

    def __hash__(self):
        raise TypeError("KForm is not hashable")

    # -- multilinear operations ------------------------------------------------

    def __call__(self, *vectors):
        """Evaluate on dim-vectors: alpha(v1, ..., vk) = i_vk ... i_v1 alpha."""
        if len(vectors) != self.degree:
            raise DimensionMismatch("wrong number of arguments")
        return reduce(KForm.contract, vectors, self).vec[0]

    def wedge(self, other):
        self._check_same_algebra(other)
        left, right, out, sign = _wedge_table(self.alg.dim, self.degree, other.degree)
        return _product(self.alg, self.degree + other.degree, out, sign,
                        self.vec[left], other.vec[right])

    def __xor__(self, other):
        return self.wedge(other)

    def contract(self, x):
        """Interior product: (i_X alpha)(Y...) = alpha(X, Y...)."""
        if self.degree < 1:
            raise LcakError("cannot contract a 0-form")
        i, rest, full, sign = _wedge_table(self.alg.dim, 1, self.degree - 1)
        return _product(self.alg, self.degree - 1, rest, sign, np.asarray(x)[i], self.vec[full])

    def d(self):
        """Chevalley-Eilenberg differential: the product with the algebra's D_k."""
        return KForm._of(self.alg, self.degree + 1, self.alg.field.matmul(
            self.alg.d_matrix(self.degree), self.vec))

    def lie_derivative(self, x):
        """L_X alpha for left-invariant alpha: -sum_p alpha(..., [X, e_j], ...)."""
        return derive_along(self, self.alg.ad(np.asarray(x)))

    def __repr__(self):
        terms = [f"{val}*{'e^' + ''.join(str(i + 1) for i in key) if key else '1'}"
                 for key, val in self.coeffs.items()]
        return " + ".join(terms) or "0"


def derive_along(a: KForm, m) -> KForm:
    """The degree-preserving derivation -sum_p alpha(..., M e_jp, ...), which is
    sum_i (-M^T e^i) ^ i_{e_i} alpha.

    With M = ad(X) this is the Lie derivative of an invariant form; with
    M = (D_{e_a} .) it is the covariant derivative along e_a.
    """
    alg, k = a.alg, a.degree
    i, rest, full, sign = _wedge_table(alg.dim, 1, k - 1)
    inner = alg.field.zeros(alg.dim, len(_keys(alg.dim, k - 1)[0]))  # inner[i] = i_{e_i} alpha
    inner[i, rest] = sign * a.vec[full]
    p = alg.field.matmul(np.asarray(m).T, inner)  # p[j] = sum_i M[i, j] i_{e_i} alpha
    out = alg.field.zeros(comb(alg.dim, k))
    np.add.at(out, full, -sign * p[i, rest])  # out = -sum_j e^j ^ p[j]
    return KForm._of(alg, k, out)


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------

def compound(m: Numerators, k):
    """The k-th compound C[I, J] = det m[I, J] over Lambda^k, as Numerators:
    each minor is expanded along its first row over the contraction table."""
    num, den = m
    dim = len(num)
    c = np.ones((1, 1), dtype=num.dtype)
    for r in range(1, k + 1):
        keys, prev = _keys(dim, r)[0], _keys(dim, r - 1)[1]
        first = [key[0] for key in keys]
        tail = [prev[key[1:]] for key in keys]
        j, rest, full, sign = _wedge_table(dim, 1, r - 1)  # i_{e_j} e^full = sign e^rest
        terms = sign * num[first][:, j] * c[tail][:, rest]
        c = np.zeros((len(keys), len(keys)), dtype=num.dtype)
        np.add.at(c, (slice(None), full), terms)
    return Numerators(c, den ** k)


def form_inner_product(a: KForm, b: KForm, g_inv):
    """<alpha, beta> extending g to k-forms; requires equal degrees."""
    if a.degree != b.degree:
        raise DimensionMismatch("inner product needs equal degrees")
    field = a.alg.field
    return field.matmul(a.vec, compound(field.numerators(g_inv), a.degree), b.vec)


def form_norm_sq(a: KForm, g_inv):
    return form_inner_product(a, a, g_inv)


def hodge_star(a: KForm, g_inv, volume: KForm):
    """Star operator fixed by alpha ^ star(beta) = <alpha, beta> vol.

    ``volume`` must be the metric volume form (F^n/n! for the structures
    built here); its sign carries the orientation.
    """
    field, dim = a.alg.field, a.alg.dim
    if volume.degree != dim:
        raise DimensionMismatch("the volume must be a top form")
    vol = volume.vec[0]
    if vol == 0:
        raise DegenerateMetric("volume form vanishes")
    inner = field.matmul(compound(field.numerators(g_inv), a.degree), a.vec)  # <e^key, a>
    key, comp, _, sign = _wedge_table(dim, a.degree, dim - a.degree)
    # e^key ^ (star a) = <e^key, a> vol forces the e^comp coefficient
    out = field.zeros(len(comp))
    out[comp] = sign * inner[key] * vol
    return KForm._of(a.alg, dim - a.degree, out)
