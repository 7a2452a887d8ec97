"""Exterior algebra of left-invariant forms on a Lie algebra.

Forms are stored sparsely on strictly increasing multi-indices; permutation
signs come from inversion counting, so exact coefficients stay exact and
equality tests are literal.  Conventions used throughout:

* d is the Chevalley-Eilenberg differential: on 1-forms
  ``d alpha (X, Y) = -alpha([X, Y])``, extended as an antiderivation;
  ``d . d = 0`` is equivalent to the Jacobi identity.
* ``contract(X, alpha) = alpha(X, . , ..., .)``.
* The inner product on k-forms extends g with ``<e^I, e^J> = det(g^{-1}[I, J])``.
* Coefficients live in the algebra's field (``alg.field``).
* ``hodge_star`` uses the volume form ``F^n / n!`` of the ambient
  almost-Hermitian structure, i.e. the orientation making that top form
  positive.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, LcakError


def merge_sign(left, right):
    """Sign for sorting the concatenation of two increasing tuples.

    Returns (sign, merged_tuple); sign 0 when the tuples intersect.
    """
    overlap = set(left) & set(right)
    if overlap:
        return 0, ()
    inversions = 0
    for x in left:
        for y in right:
            if x > y:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1) ** inversions, merged


def sort_sign(indices):
    """(sign, sorted tuple) of an arbitrary index tuple; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


class KForm:
    """A left-invariant k-form, sparse on increasing multi-indices (0-based)."""

    __slots__ = ("alg", "degree", "coeffs")

    def __init__(self, alg, degree, coeffs=None):
        if degree < 0:
            raise LcakError("negative form degree")
        self.alg = alg
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                key = tuple(key)
                if len(key) != degree:
                    raise DimensionMismatch("multi-index length != degree")
                if val != 0:
                    self.coeffs[key] = val

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, alg, terms):
        """Build from {(1-based increasing indices): coefficient}."""
        degree = len(next(iter(terms))) if terms else 0
        coeffs = {}
        for idx, val in terms.items():
            sign, key = sort_sign(tuple(i - 1 for i in idx))
            if sign == 0:
                continue
            val = alg.field.scalar(val) * sign
            coeffs[key] = coeffs.get(key, 0) + val
        return cls(alg, degree, coeffs)

    @classmethod
    def basis_one_form(cls, alg, i):
        """e^i, 0-based."""
        return cls(alg, 1, {(i,): alg.field.scalar(1)})

    @classmethod
    def from_vector(cls, alg, v):
        """Degree-1 form with components v (covector coefficients)."""
        return cls(alg, 1, {(i,): v[i] for i in range(alg.dim) if v[i] != 0})

    @classmethod
    def from_matrix(cls, alg, m):
        """Degree-2 form from an antisymmetric component matrix."""
        coeffs = {}
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                if m[i, j] != 0:
                    coeffs[(i, j)] = m[i, j]
        return cls(alg, 2, coeffs)

    # -- structural helpers ---------------------------------------------------

    def _check_same_algebra(self, other):
        if self.alg is not other.alg and self.alg.dim != other.alg.dim:
            raise DimensionMismatch("forms live on different algebras")

    def is_zero(self, tol=0.0):
        return all(abs(float(v)) <= tol for v in self.coeffs.values())

    def max_abs(self) -> float:
        return max((abs(float(v)) for v in self.coeffs.values()), default=0.0)

    def vector(self):
        """Degree-1 component vector."""
        if self.degree != 1:
            raise DimensionMismatch("vector() needs a 1-form")
        v = self.alg.field.zeros(self.alg.dim)
        for (i,), val in self.coeffs.items():
            v[i] = val
        return v

    def matrix(self):
        """Degree-2 antisymmetric component matrix."""
        if self.degree != 2:
            raise DimensionMismatch("matrix() needs a 2-form")
        m = self.alg.field.zeros(self.alg.dim, self.alg.dim)
        for (i, j), val in self.coeffs.items():
            m[i, j] = val
            m[j, i] = -val
        return m

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        self._check_same_algebra(other)
        if self.degree != other.degree:
            raise DimensionMismatch("cannot add forms of different degree")
        coeffs = dict(self.coeffs)
        for key, val in other.coeffs.items():
            s = coeffs.get(key, 0) + val
            if s == 0:
                coeffs.pop(key, None)
            else:
                coeffs[key] = s
        return KForm(self.alg, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if scalar == 0:
            return KForm(self.alg, self.degree)
        return KForm(self.alg, self.degree,
                     {k: scalar * v for k, v in self.coeffs.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.degree == other.degree and (self - other).is_zero()

    def __hash__(self):
        raise TypeError("KForm is not hashable")

    # -- multilinear operations ------------------------------------------------

    def __call__(self, *vectors):
        """Evaluate on dim-vectors (full antisymmetry built in)."""
        if len(vectors) != self.degree:
            raise DimensionMismatch("wrong number of arguments")
        if self.degree == 0:
            return self.coeffs.get((), 0)
        total = 0
        cols = [np.asarray(v) for v in vectors]
        for key, val in self.coeffs.items():
            sub = [[cols[b][key[a]] for b in range(self.degree)]
                   for a in range(self.degree)]
            total = total + val * _small_det(sub)
        return total

    def wedge(self, other):
        self._check_same_algebra(other)
        k = self.degree + other.degree
        if k > self.alg.dim:
            return KForm(self.alg, k)
        coeffs = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                sign, merged = merge_sign(ka, kb)
                if sign == 0:
                    continue
                s = coeffs.get(merged, 0) + sign * va * vb
                if s == 0:
                    coeffs.pop(merged, None)
                else:
                    coeffs[merged] = s
        return KForm(self.alg, k, coeffs)

    def __xor__(self, other):
        return self.wedge(other)

    def contract(self, x):
        """Interior product: (i_X alpha)(Y...) = alpha(X, Y...)."""
        if self.degree < 1:
            raise LcakError("cannot contract a 0-form")
        x = np.asarray(x)
        coeffs = {}
        for key, val in self.coeffs.items():
            for pos, idx in enumerate(key):
                if x[idx] == 0:
                    continue
                rest = key[:pos] + key[pos + 1:]
                term = ((-1) ** pos) * val * x[idx]
                s = coeffs.get(rest, 0) + term
                if s == 0:
                    coeffs.pop(rest, None)
                else:
                    coeffs[rest] = s
        return KForm(self.alg, self.degree - 1, coeffs)

    def d(self):
        """Chevalley-Eilenberg differential."""
        alg = self.alg
        if self.degree >= alg.dim:
            return KForm(alg, self.degree + 1)
        result = KForm(alg, self.degree + 1)
        d_basis = alg.d_one_forms
        for key, val in self.coeffs.items():
            for pos, idx in enumerate(key):
                prefix = KForm(alg, pos, {key[:pos]: 1})
                suffix_key = key[pos + 1:]
                suffix = KForm(alg, len(suffix_key), {suffix_key: 1})
                term = prefix.wedge(d_basis[idx]).wedge(suffix)
                result = result + ((-1) ** pos) * val * term
        return result

    def lie_derivative(self, x):
        """L_X alpha for left-invariant alpha: -sum_p alpha(..., [X, e_j], ...)."""
        if self.degree == 0:
            return KForm(self.alg, 0)
        return derive_along(self, self.alg.ad(np.asarray(x)))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            label = "e^" + "".join(str(i + 1) for i in key) if key else "1"
            parts.append(f"{self.coeffs[key]}*{label}")
        return " + ".join(parts)


def derive_along(a: KForm, m) -> KForm:
    """The degree-preserving derivation -sum_p alpha(..., M e_jp, ...).

    With M = ad(X) this is the Lie derivative of an invariant form; with
    M = (D_{e_a} .) it is the covariant derivative along e_a.
    """
    alg = a.alg
    if a.degree == 0:
        return KForm(alg, 0)
    m = np.asarray(m)
    coeffs = {}
    for key in combinations(range(alg.dim), a.degree):
        val = 0
        probe = list(key)
        for pos in range(a.degree):
            col = m[:, key[pos]]
            for idx in range(alg.dim):
                if col[idx] == 0:
                    continue
                probe[pos] = idx
                sign, sorted_key = sort_sign(tuple(probe))
                if sign == 0:
                    continue
                base = a.coeffs.get(sorted_key)
                if base is not None:
                    val = val - col[idx] * sign * base
            probe[pos] = key[pos]
        if val != 0:
            coeffs[key] = val
    return KForm(alg, a.degree, coeffs)


def _small_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total = total + ((-1) ** j) * rows[0][j] * _small_det(minor)
    return total


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------

def form_inner_product(a: KForm, b: KForm, g_inv):
    """<alpha, beta> extending g to k-forms; requires equal degrees."""
    if a.degree != b.degree:
        raise DimensionMismatch("inner product needs equal degrees")
    if a.degree == 0:
        return a.coeffs.get((), 0) * b.coeffs.get((), 0)
    g_inv = np.asarray(g_inv)
    total = 0
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            rows = [[g_inv[ia, jb] for jb in kb] for ia in ka]
            total = total + va * vb * _small_det(rows)
    return total


def form_norm_sq(a: KForm, g_inv):
    return form_inner_product(a, a, g_inv)


def top_coefficient(a: KForm):
    """Coefficient on e^{1...dim} of a top-degree form."""
    if a.degree != a.alg.dim:
        raise DimensionMismatch("not a top form")
    return a.coeffs.get(tuple(range(a.alg.dim)), 0)


def hodge_star(a: KForm, g_inv, volume: KForm):
    """Star operator fixed by alpha ^ star(beta) = <alpha, beta> vol.

    ``volume`` must be the metric volume form (F^n/n! for the structures
    built here); its sign carries the orientation.
    """
    alg = a.alg
    dim = alg.dim
    vol_coeff = top_coefficient(volume)
    if vol_coeff == 0:
        raise DegenerateMetric("volume form vanishes")
    full = tuple(range(dim))
    coeffs = {}
    for key in combinations(range(dim), a.degree):
        basis = KForm(alg, a.degree, {key: 1})
        m = form_inner_product(basis, a, g_inv)
        if m == 0:
            continue
        comp = tuple(i for i in full if i not in key)
        sign, _ = merge_sign(key, comp)
        # e^key ^ (star beta) = <e^key, beta> vol forces the e^comp coefficient
        val = sign * m * vol_coeff
        s = coeffs.get(comp, 0) + val
        if s == 0:
            coeffs.pop(comp, None)
        else:
            coeffs[comp] = s
    return KForm(alg, dim - a.degree, coeffs)
