"""Almost Hermitian structures (J, g) on a Lie algebra.

Conventions (fixed once, used everywhere):

* fundamental form  ``F(X, Y) = g(JX, Y)``;
* on 1-forms        ``(J alpha)(X) = -alpha(JX)``;
* Nijenhuis tensor  ``4 N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY]``;
* codifferential ``(delta phi)(...) = -sum_ab g^{ab} (D_{e_a} phi)(e_b, ...)``;
* Lee form ``theta = J delta^g F / (n - 1)`` (0 when n = 1).  It solves
  ``dF = theta ^ F`` on LCS structures and is the least-squares solution in
  the metric norm on 3-forms otherwise; ``max |dF - theta ^ F|`` is reported;
* characteristic field V solves ``i_V F = theta``, so ``V = -JT``.

The structure holds its algebra's arithmetic field (``field is alg.field``)
and has no tolerance of its own; J, g and every derived array are
:class:`~lcak.arith.QArray`s in exact mode and float arrays otherwise, and
one expression (``J.T @ g @ J``) serves both.  A 2-tensor (D theta, N(X),
L_X g, the parts of ``split_tensor``) is its plain dim x dim component
array, entry [i, j] its value on (e_i, e_j).  The Nijenhuis table and the
Lie-derivative table of F are contractions of the algebra's
``structure_tensor`` with J and F, computed once per structure; N(X, Y), the
forms N_X, the tensors N(X) and the image of N read from the table.  The
compound matrices of g^-1 that pair k-forms are built once per degree.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import arith
from .algebra import LieAlgebra
from .errors import (DegenerateMetric, DimensionMismatch, NondegeneracyFailure,
                     UnsupportedDimension, ValidationError)
from .forms import KForm, compound, pairing


def preset_j(name, dim):
    """Integer J of a named frame: "split" J e_i = e_{n+i}, "mirror"
    J e_i = e_{2n+1-i} (i = 1..n, dim = 2n)."""
    n = dim // 2
    j = np.zeros((dim, dim), dtype=int)
    for i in range(n):
        k = n + i if name == "split" else dim - 1 - i
        j[k, i] = 1
        j[i, k] = -1
    return j


@dataclass
class StructureValidationReport:
    j_squared_ok: bool
    g_symmetric: bool
    g_positive_definite: bool
    g_j_invariant: bool
    f_nondegenerate: bool
    compatibility_residual: float

    @property
    def ok(self):
        return (self.j_squared_ok and self.g_symmetric and
                self.g_positive_definite and self.g_j_invariant and
                self.f_nondegenerate)

    def as_dict(self):
        return {**asdict(self), "ok": self.ok}


@dataclass
class LeeData:
    """Lee form and its companions for one structure.

    ``theta = J delta^g F / (n - 1)``, with ``solve_residual`` the relative
    max-norm of dF - theta ^ F; ``T`` is its metric dual, ``V = -JT`` the
    characteristic field (i_V F = theta), ``eta = -i_T F`` (identically
    -J theta for T = theta sharp), ``norm_sq = theta(T)``, ``dtheta`` and
    ``djtheta`` are d theta and d(J theta)."""
    theta: KForm
    T: np.ndarray
    jtheta: KForm
    JT: np.ndarray
    eta: KForm
    V: np.ndarray
    norm_sq: object
    solve_residual: float
    dtheta: KForm
    djtheta: KForm


def validate_structure(J, g, alg=None) -> StructureValidationReport:
    """Check J^2 = -id, g symmetric positive definite and J-invariant, in the
    field of ``alg`` (an abelian algebra in the mode of J and g when omitted)."""
    if alg is None:
        alg = LieAlgebra(len(J), exact=arith.all_exact(J) and arith.all_exact(g))
    return AlmostHermitianStructure(alg, J, g, validate=False).validation


class AlmostHermitianStructure:
    """A left-invariant almost Hermitian structure (J, g) with F = g(J., .).

    Parameters
    ----------
    alg : LieAlgebra; its ``field`` is the structure's, so J and g must be
        exact when the algebra is (build on ``alg.as_float()`` otherwise).
    J : dim x dim matrix with J^2 = -id (columns are J e_j).
    g : dim x dim Gram matrix; identity when omitted.
    validate : raise ValidationError on invalid input (default). Pass False
        to build a structure that fails validation on purpose (the condition
        checkers then report the defect instead of raising).
    """

    def __init__(self, alg: LieAlgebra, J, g=None, validate=True, name=None):
        field = self.field = alg.field
        self.alg, self.name = alg, name
        J = self.J = field.array(J)
        g = self.g = field.eye(alg.dim) if g is None else field.array(g)
        self._compounds = {}  # degree -> compound of g^-1
        if J.shape != g.shape or J.shape != (alg.dim, alg.dim):
            raise DimensionMismatch("J and g must be square of the algebra's dimension")
        g_sym = field.is_zero(g - g.T)
        compat = arith.max_abs(J.T @ g @ J - g)
        self.validation = StructureValidationReport(
            j_squared_ok=field.is_zero(J @ J + field.eye(len(g))),
            g_symmetric=g_sym,
            g_positive_definite=g_sym and arith.is_positive_definite(g, field),
            g_j_invariant=field.is_zero(compat, arith.max_abs(g)),
            f_nondegenerate=field.is_nondegenerate(J.T @ g),
            compatibility_residual=float(compat),
        )
        if validate and not self.validation.ok:
            code = "J_NOT_ACS" if not self.validation.j_squared_ok else (
                "G_NOT_SYMMETRIC" if not self.validation.g_symmetric else (
                    "G_NOT_POSITIVE_DEFINITE" if not self.validation.g_positive_definite
                    else "G_NOT_J_INVARIANT"))
            raise ValidationError(f"invalid almost Hermitian data: {code}", code=code)

    # -- basic derived data ---------------------------------------------------

    @property
    def exact(self):
        return self.field.exact

    @property
    def tol(self):
        return self.field.tol

    @property
    def dim(self):
        return self.alg.dim

    @property
    def n(self):
        return self.alg.dim // 2

    @cached_property
    def g_inv(self):
        try:
            return arith.invert(self.g, self.field)
        except DegenerateMetric as e:
            raise DegenerateMetric("metric is singular") from e

    @cached_property
    def f_matrix(self):
        return self.J.T @ self.g

    def g_inv_compound(self, k):
        """The k-th compound of g^-1, the Gram matrix of k-forms; built once per degree."""
        if k not in self._compounds:
            self._compounds[k] = compound(self.field, self.g_inv, k)
        return self._compounds[k]

    @cached_property
    def F(self) -> KForm:
        return KForm.from_matrix(self.alg, self.f_matrix)

    @cached_property
    def volume(self) -> KForm:
        v = self.F
        out = self.F
        fact = 1
        for k in range(2, self.n + 1):
            out = out.wedge(v)
            fact *= k
        return self.field.scalar(1, fact) * out

    # -- J actions --------------------------------------------------------------

    def j_one_form(self, a):
        """(J alpha)(X) = -alpha(JX)."""
        if isinstance(a, KForm):
            return KForm.from_vector(self.alg, -(self.J.T @ a.vector()))
        return -(self.J.T @ a)

    # -- tensor splittings -------------------------------------------------------

    def split_tensor(self, phi):
        """J-(anti)invariant and (anti)symmetric parts of the 2-tensor ``phi``;
        parts sum back exactly."""
        pulled = self.J.T @ phi @ self.J
        half = self.field.scalar(1, 2)
        return {"j_plus": half * (phi + pulled), "j_minus": half * (phi - pulled),
                "sym": half * (phi + phi.T), "antisym": half * (phi - phi.T)}

    # -- norms and inner products -------------------------------------------------

    def form_inner(self, a, b):
        """<alpha, beta> on k-forms, from the cached compound of g^-1."""
        return pairing(a, b, self.g_inv_compound(a.degree))

    def tensor_norm_sq(self, phi):
        """Frobenius norm squared w.r.t. g: sum g^ik g^jl phi_ij phi_kl."""
        return (self.g_inv @ phi @ self.g_inv @ phi.T).trace()

    def sharp(self, a):
        """Vector dual of a 1-form."""
        return self.g_inv @ (a.vector() if isinstance(a, KForm) else a)

    def flat(self, x):
        """1-form dual of a vector."""
        return KForm.from_vector(self.alg, self.g @ x)

    # -- Nijenhuis tensor ----------------------------------------------------------

    @cached_property
    def _nijenhuis(self):
        """N[:, i, j] = N(e_i, e_j) for all i, j, from the contracted brackets."""
        c, J, f = self.alg.structure_tensor, self.J, self.field
        jj = f.einsum('kab,ai,bj->kij', c, J, J)   # [J e_i, J e_j]
        jjx = f.einsum('kl,laj,ai->kij', J, c, J)  # J [J e_i, e_j]
        jjy = f.einsum('kl,lib,bj->kij', J, c, J)  # J [e_i, J e_j]
        return f.scalar(1, 4) * (jj - c - jjx - jjy)

    def nijenhuis(self, x, y):
        """4 N(X,Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY], returns N(X,Y)."""
        return (self._nijenhuis @ y) @ x

    def nijenhuis_form(self, x):
        """N_X = g(N(., .), X) as a 2-form."""
        gx = (self.g @ x).reshape(1, self.dim)
        return KForm.from_matrix(self.alg, self._contract_first(gx, self._nijenhuis))

    def nijenhuis_tensor(self, x):
        """N(X) = g(N(X, .), .) as a 2-tensor."""
        return self.field.einsum('kij,i,lk->jl', self._nijenhuis, x, self.g)

    def nijenhuis_image(self):
        """Basis of span{N(e_i, e_j)} as a list of vectors."""
        rows, cols = np.triu_indices(self.dim, 1)
        table = self._nijenhuis[:, rows, cols].T
        return arith.row_space(table[[not self.field.is_zero(v) for v in table]], self.field)

    # -- Lee form ----------------------------------------------------------------

    def lee_form(self) -> LeeData:
        return self._lee

    @cached_property
    def _lee(self) -> LeeData:
        if not self.validation.f_nondegenerate:
            raise NondegeneracyFailure("fundamental form is degenerate")
        theta = KForm(self.alg, 1)
        if self.n > 1:
            delta_f = self.codifferential(self.f_matrix)
            theta = self.field.scalar(1, self.n - 1) * self.j_one_form(delta_f)
        dF = self.F.d()
        solve_residual = (dF - theta.wedge(self.F)).max_abs() / max(1.0, dF.max_abs())
        theta_vec = theta.vector()
        T = self.g_inv @ theta_vec
        JT = self.J @ T
        jtheta = self.j_one_form(theta)
        # i_V F = theta  <=>  JV = T
        return LeeData(theta=theta, T=T, jtheta=jtheta, JT=JT,
                       eta=-1 * self.F.contract(T), V=-JT, norm_sq=theta_vec @ T,
                       solve_residual=solve_residual, dtheta=theta.d(), djtheta=jtheta.d())

    # -- connection-dependent operations (tables built in connection.py) -------

    @cached_property
    def connection(self):
        from . import connection
        return connection.levi_civita(self)

    @cached_property
    def curvature(self):
        from . import connection
        return connection.curvature(self)

    @cached_property
    def Dtheta(self):
        """D theta, the covariant derivative of the Lee form, as a 2-tensor."""
        from . import connection
        return connection.covariant_one_form(self, self._lee.theta)

    @cached_property
    def delta_theta(self):
        """delta theta = -sum_ab g^{ab} (D theta)_{ab}, read off the cached D theta."""
        return -(self.g_inv @ self.Dtheta).trace()

    def codifferential(self, obj):
        """delta^g on forms of degree <= 2 and on 2-tensors (dim x dim arrays),
        via the covariant-derivative trace (a 2-form goes through its matrix)."""
        if isinstance(obj, KForm):
            if obj.degree == 0:
                return KForm(self.alg, 0)
            if obj.degree == 1:  # -sum_ab g^{ab} (D alpha)_{ab}
                from . import connection
                d_alpha = connection.covariant_one_form(self, obj)
                return KForm(self.alg, 0, {(): -(self.g_inv @ d_alpha).trace()})
            if obj.degree != 2:
                raise UnsupportedDimension("codifferential of forms of degree > 2")
            obj = obj.matrix()
        elif np.shape(obj) != (self.dim, self.dim):
            raise DimensionMismatch("codifferential expects a KForm or a dim x dim array")
        # (D_{e_a} phi)(e_b, .) = -(Gamma_a^T phi + phi Gamma_a)[b], traced with g^{ab}
        f, gamma = self.field, self.connection.gamma
        out = (f.einsum('ab,akb->k', self.g_inv, gamma) @ obj
               + f.einsum('ab,bk,akc->c', self.g_inv, obj, gamma))
        return KForm.from_vector(self.alg, out)

    # -- Lie derivatives -----------------------------------------------------------

    def lie_derivative_J(self, x):
        """(L_X J)(Y) = [X, JY] - J[X, Y] as an endomorphism matrix."""
        ad = self.alg.ad(x)
        return ad @ self.J - self.J @ ad

    @cached_property
    def _lie_F(self):
        """L[c] = L_{e_c} F as a matrix, from cf[c, a, b] = F([e_c, e_a], e_b)."""
        cf = self.field.einsum('kca,kb->cab', self.alg.structure_tensor, self.f_matrix)
        return cf.transpose(0, 2, 1) - cf

    def lie_derivative_F(self, x):
        """(L_X F)(Y, Z) = -F([X,Y], Z) - F(Y, [X,Z]) as a 2-form."""
        x = self.field.array(x).reshape(1, self.dim)
        return KForm.from_matrix(self.alg, self._contract_first(x, self._lie_F))

    def _contract_first(self, x, table):
        """sum_c x[0, c] table[c] (``np.tensordot(x, table, 1)``) as one product."""
        return (x @ table.reshape(self.dim, -1)).reshape(self.dim, self.dim)

    @cached_property
    def automorphisms(self):
        """Basis of the infinitesimal automorphisms {X : L_X F = 0}."""
        rows, cols = np.triu_indices(self.dim, 1)
        return arith.nullspace(self._lie_F[:, rows, cols].T, self.field)

    def lie_derivative_g(self, x):
        """(L_X g)(Y, Z) = -g([X, Y], Z) - g(Y, [X, Z]) as a 2-tensor."""
        ad = self.alg.ad(x)
        return -(ad.T @ self.g + self.g @ ad)

    # -- transforms ------------------------------------------------------------------

    def rescaled(self, factor):
        """Same J, metric scaled: g -> factor * g."""
        factor = self.field.scalar(factor)
        return AlmostHermitianStructure(self.alg, self.J, factor * self.g,
                                        validate=False, name=self.name)

    def change_basis(self, p):
        """Transport the whole structure to the basis with columns of P."""
        alg2, pm, pinv = self.alg._change_basis(p)
        j2 = pinv @ alg2.field.array(self.J) @ pm
        g2 = pm.T @ alg2.field.array(self.g) @ pm
        return AlmostHermitianStructure(alg2, j2, g2, validate=False, name=self.name)

    def as_float(self):
        if not self.exact:
            return self
        return AlmostHermitianStructure(
            self.alg.as_float(),
            np.asarray(self.J, dtype=float), np.asarray(self.g, dtype=float),
            validate=False, name=self.name)

    def basis_vector(self, i):
        v = self.field.zeros(self.dim)
        v[i] = self.field.scalar(1)
        return v

    def __repr__(self):
        return (f"AlmostHermitianStructure(dim={self.dim}, exact={self.exact}"
                + (f", name={self.name!r}" if self.name else "") + ")")
