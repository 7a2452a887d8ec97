"""Real Lie algebras given by structure constants in a fixed basis.

A ``LieAlgebra`` is its structure tensor: the dense, read-only
``structure_tensor`` C with ``C[k, i, j] = c^k_{ij}`` in ``[e_i, e_j] = sum_k
c^k_{ij} e_k`` (indices 1-based in the public API, 0-based in C), built once
under one bracket rule.  Everything downstream -- forms, connections,
curvature -- is driven by it: brackets, ad, the unimodularity traces and the
Jacobi residual are contractions of C, the matrices of d on forms
(``d_matrix``) are scattered from it, and each table is computed once per
algebra.  The same contractions serve exact arithmetic (C is an
:class:`~lcak.arith.QArray`, integers over one denominator) and float
arithmetic; the algebra's :class:`~lcak.arith.Field` says which, and
structures, forms and tensors built on the algebra use the same field.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
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
        return asdict(self)


class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis.

    Parameters
    ----------
    dim : int
        Dimension (>= 1; almost-Hermitian structures will demand it even).
    brackets : mapping
        ``{(i, j): {k: value}}`` with 1-based indices meaning
        ``[e_i, e_j] = sum_k value * e_k``.  A pair may be listed in one
        order or in both; in both it counts once, ``c_ij = (b_ij - b_ji) / 2``,
        and ``antisymmetry_ok`` records whether ``b_ji = -b_ij`` (within the
        field's bound, relative to the largest constant).  A nonzero
        ``[e_i, e_i]`` raises ``IndexOutOfRange``.  Values may be ints,
        Fractions, floats or strings; a string is the rational it is written
        as ("1/4", "0.25", "1e-3"), by :func:`~lcak.arith.parse_scalar`.
    exact : force exact (Fraction) or float arithmetic; inferred from the
        values when omitted.
    tol : comparison tolerance for float mode.
    """

    def __init__(self, dim, brackets=None, exact=None, tol=DEFAULT_TOL):
        if dim < 1:
            raise IndexOutOfRange(f"dim must be positive, got {dim}")
        dim = int(dim)
        given = {}  # (i, j) 0-based -> {k: value as given}
        for (i, j), comps in (brackets or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"bracket pair ({i},{j}) outside 1..{dim}")
            row = given[(i - 1, j - 1)] = {}
            for k, v in comps.items():
                if not 1 <= k <= dim:
                    raise IndexOutOfRange(f"target index {k} outside 1..{dim}")
                row[k - 1] = arith.parse_scalar(v) if isinstance(v, str) else v
            if i == j and any(v != 0 for v in row.values()):
                raise IndexOutOfRange(f"[e_{i}, e_{i}] must vanish")
        values = [v for row in given.values() for v in row.values()]
        if exact is None:
            exact = arith.all_exact(values)
        f = arith.Field(bool(exact), float(tol))
        index, scattered = [], []
        for (i, j), row in given.items():
            for k, v in row.items():
                v = f.scalar(1, 2) * v if (j, i) in given else v
                index += [(k, i, j), (k, j, i)]
                scattered += [v, -v]
        c = f.scatter((dim,) * 3, tuple(np.array(index, dtype=int).reshape(-1, 3).T),
                      f.array(scattered))
        anti = [v + given[(j, i)].get(k, 0) for (i, j), row in given.items()
                if i != j and (j, i) in given for k, v in row.items()]
        self._set_tensor(c, f, f.is_zero(anti, max(map(abs, values), default=0)))

    @classmethod
    def _of(cls, c, field):
        """The algebra whose structure tensor is the antisymmetric ``c``, in ``field``."""
        alg = cls.__new__(cls)
        alg._set_tensor(c, field, True)
        return alg

    def _set_tensor(self, c, field, antisymmetry_ok):
        c.flags.writeable = False
        self.dim, self.field, self.structure_tensor = len(c), field, c
        self.antisymmetry_ok = antisymmetry_ok
        self._d = {}  # degree -> d_matrix

    # -- scalars ------------------------------------------------------------

    @property
    def exact(self):
        return self.field.exact

    @property
    def tol(self):
        return self.field.tol

    # -- structure tensor ---------------------------------------------------

    def sparse_constants(self):
        """The nonzero constants (i, j, k) -> c^k_{ij}, 1-based, i < j, in that order."""
        c = np.asarray(self.structure_tensor).tolist()
        n = self.dim
        return {(i + 1, j + 1, k + 1): c[k][i][j] for i in range(n)
                for j in range(i + 1, n) for k in range(n) if c[k][i][j] != 0}

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        if np.shape(x) != (self.dim,) or np.shape(y) != (self.dim,):
            raise DimensionMismatch("vector length != dim")
        return self.field.einsum('kij,i,j->k', self.structure_tensor, x, y)

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a (read-only) vector, 0-based indices."""
        return self.structure_tensor[:, i, j]

    def ad(self, x):
        """Matrix of ad(x): y -> [x, y]."""
        if np.shape(x) != (self.dim,):
            raise DimensionMismatch("vector length != dim")
        return self.field.einsum('kij,i->kj', self.structure_tensor, x)

    def ad_basis(self, i):
        return self.structure_tensor[:, i, :]

    def d_matrix(self, k):
        """d: Lambda^k -> Lambda^(k+1) on ``forms.KForm`` coefficient vectors:
        one scatter of ``structure_tensor`` over ``forms.d_table``, computed
        once per degree."""
        if k not in self._d:
            m, i, j, out, inp, sign = forms.d_table(self.dim, k)
            self._d[k] = self.field.scatter((comb(self.dim, k + 1), comb(self.dim, k)),
                                            (out, inp), -sign * self.structure_tensor[m, i, j])
        return self._d[k]

    # -- axioms -------------------------------------------------------------

    @cached_property
    def _jacobi(self) -> float:
        c = self.structure_tensor
        t = self.field.einsum('mij,lmk->lijk', c, c)  # t[:, i, j, k] = [[e_i, e_j], e_k]
        return arith.max_abs(t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1))

    def jacobi_residual(self) -> float:
        """Max-norm of the cyclic sum [[e_i,e_j],e_k] over all triples."""
        return self._jacobi

    def validate(self) -> AlgebraValidationReport:
        res = self.jacobi_residual()
        return AlgebraValidationReport(antisymmetry_ok=self.antisymmetry_ok,
                                       jacobi_residual=res,
                                       ok=self.antisymmetry_ok and self.field.is_zero(res))

    def is_unimodular(self):
        """(flag, traces): trace of ad(e_i) for every basis vector."""
        traces = list(self.field.einsum('kik->i', self.structure_tensor))
        return self.field.is_zero(traces), traces

    # -- transforms ---------------------------------------------------------

    def change_basis(self, p):
        """Algebra in the basis e'_i = sum_k P[k,i] e_k (P columns = new basis)."""
        return self._change_basis(p)[0]

    def _change_basis(self, p):
        """(algebra in the basis of P's columns, P, P^-1), both over its field."""
        p = np.asarray(p)
        if p.shape != (self.dim, self.dim):
            raise DimensionMismatch("change-of-basis matrix has wrong shape")
        exact = self.exact and arith.all_exact(p.ravel().tolist())
        base = self if exact else self.as_float()
        p = base.field.array(p)
        pinv = arith.invert(p, base.field)
        i, j = np.triu_indices(self.dim, 1)
        b = base.field.array([pinv @ base.bracket(p[:, r], p[:, s]) for r, s in zip(i, j)]).T
        c = base.field.zeros(self.dim, self.dim, self.dim)
        c[:, i, j], c[:, j, i] = b, -b
        return LieAlgebra._of(c, base.field), p, pinv

    def as_float(self):
        """The same algebra with float structure constants (each correctly rounded)."""
        if not self.exact:
            return self
        return LieAlgebra._of(np.asarray(self.structure_tensor, dtype=float),
                              arith.Field(False, self.tol))

    def __repr__(self):
        return (f"LieAlgebra(dim={self.dim}, brackets={len(self.sparse_constants())} terms, "
                f"exact={self.exact})")


def abelian_algebra(dim) -> LieAlgebra:
    return LieAlgebra(dim, {}, exact=True)
