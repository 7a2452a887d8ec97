"""Real Lie algebras given by structure constants in a fixed basis.

A ``LieAlgebra`` stores the constants c^k_{ij} of ``[e_i, e_j] = sum_k c^k_{ij} e_k``
sparsely on pairs i < j (indices are 1-based in the public API, 0-based
internally).  Everything downstream -- forms, connections, curvature -- is
driven by the dense bracket tensor this class exposes: brackets, ad, the
unimodularity traces and the Jacobi residual are contractions of
``structure_tensor``, the matrices of d on forms (``d_matrix``) are scattered
from it, and each table (and the tensor's integer numerators,
``structure_num``) is computed once per algebra.  The same
contractions serve exact (object arrays of Fractions) and float arithmetic;
the algebra's :class:`~lcak.arith.Field` says which, and structures, forms
and tensors built on the algebra use the same field.  The Jacobi residual
is contracted on the integer numerators of the structure tensor and divided
by the square of its denominator once, after the maximum is taken.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import arith, forms
from .arith import DEFAULT_TOL
from .errors import DimensionMismatch, IndexOutOfRange


@dataclass
class AlgebraValidationReport:
    antisymmetry_ok: bool
    jacobi_residual: float
    ok: bool

    def as_dict(self):
        return {
            "antisymmetry_ok": self.antisymmetry_ok,
            "jacobi_residual": self.jacobi_residual,
            "ok": self.ok,
        }


class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis.

    Parameters
    ----------
    dim : int
        Dimension (>= 1; almost-Hermitian structures will demand it even).
    brackets : mapping
        ``{(i, j): {k: value}}`` with 1-based indices meaning
        ``[e_i, e_j] = sum_k value * e_k``.  Pairs may be given in either
        order; the antisymmetric extension is applied.  Values may be ints,
        Fractions, fraction strings or floats.
    labels : optional list of basis labels (defaults to e1..en).
    exact : force exact (Fraction) or float arithmetic; inferred from the
        values when omitted.
    tol : comparison tolerance for float mode.
    """

    def __init__(self, dim, brackets=None, labels=None, exact=None, tol=DEFAULT_TOL):
        if dim < 1:
            raise IndexOutOfRange(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        brackets = brackets or {}
        values = []
        for pair, comps in brackets.items():
            for k, v in comps.items():
                values.append(arith.parse_scalar(v) if isinstance(v, str) else v)
        if exact is None:
            exact = arith.all_exact(values)
        self.field = arith.Field(bool(exact), float(tol))
        self.labels = list(labels) if labels else [f"e{i}" for i in range(1, dim + 1)]
        if len(self.labels) != dim:
            raise DimensionMismatch("labels length != dim")

        self._d = {}  # degree -> d_matrix
        # sparse storage: {(i, j, k) 0-based, i < j: scalar}
        self._c = {}
        for (i, j), comps in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"bracket pair ({i},{j}) outside 1..{dim}")
            if i == j:
                if any(self._coerce(v) != 0 for v in comps.values()):
                    raise IndexOutOfRange(f"[e_{i}, e_{i}] must vanish")
                continue
            sign = 1 if i < j else -1
            a, b = (i, j) if i < j else (j, i)
            for k, v in comps.items():
                if not 1 <= k <= dim:
                    raise IndexOutOfRange(f"target index {k} outside 1..{dim}")
                val = self._coerce(v) * sign
                key = (a - 1, b - 1, k - 1)
                cur = self._c.get(key, 0)
                new = cur + val
                if new == 0:
                    self._c.pop(key, None)
                else:
                    self._c[key] = new

    # -- scalars ------------------------------------------------------------

    @property
    def exact(self):
        return self.field.exact

    @property
    def tol(self):
        return self.field.tol

    def _coerce(self, v):
        return self.field.scalar(arith.parse_scalar(v) if isinstance(v, str) else v)

    # -- structure tensor ---------------------------------------------------

    @cached_property
    def structure_tensor(self):
        """Dense C with C[k][i][j] = c^k_{ij} (0-based); read-only."""
        c = self.field.zeros(self.dim, self.dim, self.dim)
        for (i, j, k), v in self._c.items():
            c[k][i][j] = v
            c[k][j][i] = -v
        c.flags.writeable = False
        return c

    # structure_tensor as arith.Numerators, computed once
    structure_num = cached_property(lambda self: self.field.numerators(self.structure_tensor))

    def sparse_constants(self):
        """The stored (i, j, k) -> value map, 1-based, i < j."""
        return {(i + 1, j + 1, k + 1): v for (i, j, k), v in sorted(self._c.items())}

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch("vector length != dim")
        return self.field.einsum('kij,i,j->k', self.structure_num, x, y)

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a (read-only) vector, 0-based indices."""
        return self.structure_tensor[:, i, j]

    def ad(self, x):
        """Matrix of ad(x): y -> [x, y]."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch("vector length != dim")
        return self.field.einsum('kij,i->kj', self.structure_num, x)

    def ad_basis(self, i):
        return self.structure_tensor[:, i, :]

    def d_matrix(self, k):
        """d: Lambda^k -> Lambda^(k+1) on ``forms.KForm`` coefficient vectors, as
        Numerators: one scatter of ``structure_num`` over ``forms.d_table``,
        computed once per degree."""
        if k not in self._d:
            num, den = self.structure_num
            m, i, j, out, inp, sign = forms.d_table(self.dim, k)
            d = np.zeros((comb(self.dim, k + 1), comb(self.dim, k)), dtype=num.dtype)
            np.add.at(d, (out, inp), -sign * num[m, i, j])
            self._d[k] = arith.Numerators(d, den)
        return self._d[k]

    # -- axioms -------------------------------------------------------------

    @cached_property
    def _jacobi(self) -> float:
        num, den = self.structure_num
        t = np.einsum('mij,lmk->lijk', num, num)  # t[:, i, j, k] = den^2 [[e_i, e_j], e_k]
        cyclic = t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1)
        return float(self.field.scalar(np.max(np.abs(cyclic)), den * den))

    def jacobi_residual(self) -> float:
        """Max-norm of the cyclic sum [[e_i,e_j],e_k] over all triples."""
        return self._jacobi

    def validate(self) -> AlgebraValidationReport:
        res = self.jacobi_residual()
        return AlgebraValidationReport(antisymmetry_ok=True, jacobi_residual=res,
                                       ok=self.field.is_zero(res))

    def is_unimodular(self):
        """(flag, traces): trace of ad(e_i) for every basis vector."""
        traces = list(np.einsum('kik->i', self.structure_tensor))
        return self.field.is_zero(traces), traces

    # -- transforms ---------------------------------------------------------

    def change_basis(self, p):
        """Algebra in the basis e'_i = sum_k P[k,i] e_k (P columns = new basis)."""
        p = np.asarray(p)
        if p.shape != (self.dim, self.dim):
            raise DimensionMismatch("change-of-basis matrix has wrong shape")
        exact = self.exact and arith.all_exact(p.ravel().tolist())
        base = self if exact else self.as_float()
        p = base.field.array(p)
        pinv = arith.invert(p, base.field)
        new = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comps = pinv @ base.bracket(p[:, i], p[:, j])
                entry = {k + 1: comps[k] for k in range(self.dim)
                         if comps[k] != 0}
                if entry:
                    new[(i + 1, j + 1)] = entry
        return LieAlgebra(self.dim, new, exact=exact, tol=self.tol)

    def as_float(self):
        """The same algebra with float structure constants."""
        if not self.exact:
            return self
        new = {}
        for (i, j, k), v in self.sparse_constants().items():
            new.setdefault((i, j), {})[k] = float(v)
        return LieAlgebra(self.dim, new, labels=self.labels, exact=False, tol=self.tol)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._c)} terms, exact={self.exact})"


def validate_lie_algebra(constants, dim, exact=None, tol=DEFAULT_TOL) -> AlgebraValidationReport:
    """Check raw constants ``{(i, j): {k: value}}`` for antisymmetry and Jacobi.

    Unlike the ``LieAlgebra`` constructor (which antisymmetrizes), this sees
    the constants as given: if both (i, j) and (j, i) appear their values must
    be exact negatives.
    """
    values = [v for comps in constants.values() for v in comps.values()]
    if exact is None:
        exact = arith.all_exact([arith.parse_scalar(v) if isinstance(v, str) else v
                                 for v in values])
    field = arith.Field(bool(exact), tol)
    anti_ok = True
    seen = {}
    for (i, j), comps in constants.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise IndexOutOfRange(f"bracket pair ({i},{j}) outside 1..{dim}")
        for k, v in comps.items():
            if not 1 <= k <= dim:
                raise IndexOutOfRange(f"target index {k} outside 1..{dim}")
            v = arith.parse_scalar(v) if isinstance(v, str) else v
            if i == j and not field.is_zero(v):
                anti_ok = False
            seen[(i, j, k)] = v
    for (i, j, k), v in seen.items():
        w = seen.get((j, i, k))
        if w is not None and not field.is_zero(v + w):
            anti_ok = False
    # Jacobi on the antisymmetrized algebra
    normalized = {}
    for (i, j), comps in constants.items():
        if i == j:
            continue
        for k, v in comps.items():
            normalized.setdefault((i, j), {})
            normalized[(i, j)][k] = normalized[(i, j)].get(k, 0) + (
                arith.parse_scalar(v) if isinstance(v, str) else v)
    # collapse double-listed pairs (i,j)/(j,i) to a single i<j entry
    collapsed = {}
    for (i, j), comps in normalized.items():
        sign = 1 if i < j else -1
        a, b = min(i, j), max(i, j)
        tgt = collapsed.setdefault((a, b), {})
        for k, v in comps.items():
            tgt[k] = tgt.get(k, 0) + sign * v
    both = {p for p in normalized if (p[1], p[0]) in normalized}
    half = field.scalar(1, 2)
    for (a, b) in list(collapsed):
        if (a, b) in both and (b, a) in both:
            collapsed[(a, b)] = {k: half * v for k, v in collapsed[(a, b)].items()}
    alg = LieAlgebra(dim, collapsed, exact=exact, tol=tol)
    res = alg.jacobi_residual()
    ok = anti_ok and field.is_zero(res)
    return AlgebraValidationReport(antisymmetry_ok=anti_ok, jacobi_residual=res, ok=ok)


def abelian_algebra(dim, exact=True, tol=DEFAULT_TOL) -> LieAlgebra:
    return LieAlgebra(dim, {}, exact=exact, tol=tol)
