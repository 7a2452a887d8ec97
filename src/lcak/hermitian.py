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

The structure holds the algebra's arithmetic field (``field``), with its own
tolerance when one is given.  The Nijenhuis table and the Lie-derivative
table of F are contractions of the algebra's ``structure_tensor`` with J and
F, computed once per structure; N(X, Y), the forms N_X, the tensors N(X) and
the image of N read from the table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import arith
from .algebra import LieAlgebra
from .arith import DEFAULT_TOL
from .errors import (DegenerateMetric, DimensionMismatch, NondegeneracyFailure,
                     UnsupportedDimension, ValidationError)
from .forms import KForm, form_inner_product


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


class Tensor2:
    """A general bilinear form on the algebra, stored as its component matrix."""

    __slots__ = ("alg", "mat")

    def __init__(self, alg, mat):
        mat = np.asarray(mat)
        if mat.shape != (alg.dim, alg.dim):
            raise DimensionMismatch("Tensor2 matrix has wrong shape")
        self.alg = alg
        self.mat = mat

    def __call__(self, x, y):
        return self.alg.field.matmul(x, self.mat, y)

    def __add__(self, other):
        return Tensor2(self.alg, self.mat + other.mat)

    def __sub__(self, other):
        return Tensor2(self.alg, self.mat - other.mat)

    def __rmul__(self, scalar):
        return Tensor2(self.alg, scalar * self.mat)

    def sym(self):
        return Tensor2(self.alg, self.alg.field.scalar(1, 2) * (self.mat + self.mat.T))

    def antisym(self):
        return Tensor2(self.alg, self.alg.field.scalar(1, 2) * (self.mat - self.mat.T))

    def max_abs(self):
        return arith.max_abs(self.mat)

    def __repr__(self):
        return f"Tensor2({self.mat!r})"


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
        return {
            "j_squared_ok": self.j_squared_ok,
            "g_symmetric": self.g_symmetric,
            "g_positive_definite": self.g_positive_definite,
            "g_j_invariant": self.g_j_invariant,
            "f_nondegenerate": self.f_nondegenerate,
            "compatibility_residual": self.compatibility_residual,
            "ok": self.ok,
        }


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


def validate_structure(J, g, alg=None, tol=DEFAULT_TOL) -> StructureValidationReport:
    """Check J^2 = -id, g symmetric positive definite and J-invariant."""
    J = np.asarray(J)
    g = np.asarray(g)
    if J.shape != g.shape or J.shape[0] != J.shape[1]:
        raise DimensionMismatch("J and g must be square of equal size")
    if alg is not None and J.shape[0] != alg.dim:
        raise DimensionMismatch("matrix size != algebra dimension")
    exact = arith.all_exact(J.ravel().tolist()) and arith.all_exact(g.ravel().tolist())
    field = arith.Field(exact, tol)
    J, g = field.array(J), field.array(g)
    return _validation(field, g, field.numerators(J), field.numerators(g))


def _validation(field, g, jn, gn):
    """The checks of ``validate_structure`` on g and the numerators of J and g."""
    g_sym = field.is_zero(g - g.T)
    compat = arith.max_abs(field.matmul(jn.T, gn, jn) - g)
    return StructureValidationReport(
        j_squared_ok=field.is_zero(field.matmul(jn, jn) + field.eye(len(g))),
        g_symmetric=g_sym,
        g_positive_definite=g_sym and arith.is_positive_definite(g, field),
        g_j_invariant=field.is_zero(compat, arith.max_abs(g)),
        f_nondegenerate=field.is_nondegenerate(field.matmul(jn.T, gn)),
        compatibility_residual=float(compat),
    )


class AlmostHermitianStructure:
    """A left-invariant almost Hermitian structure (J, g) with F = g(J., .).

    Parameters
    ----------
    alg : LieAlgebra
    J : dim x dim matrix with J^2 = -id (columns are J e_j).
    g : dim x dim Gram matrix; identity when omitted.
    validate : raise ValidationError on invalid input (default). Pass False
        to build a structure that fails validation on purpose (the condition
        checkers then report the defect instead of raising).
    """

    def __init__(self, alg: LieAlgebra, J, g=None, tol=None, validate=True, name=None):
        J = np.asarray(J)
        g = alg.field.eye(alg.dim) if g is None else np.asarray(g)
        exact = (alg.exact and arith.all_exact(J.ravel().tolist())
                 and arith.all_exact(g.ravel().tolist()))
        self.alg = alg if exact == alg.exact else alg.as_float()
        self.field = arith.Field(exact, self.alg.tol if tol is None else float(tol))
        self.J = self.field.array(J)
        self.g = self.field.array(g)
        self.name = name
        if self.J.shape != self.g.shape or self.J.shape != (alg.dim, alg.dim):
            raise DimensionMismatch("J and g must be square of the algebra's dimension")
        self.validation = _validation(self.field, self.g, self.J_num, self.g_num)
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
        return self.field.matmul(self.J_num.T, self.g_num)

    # the read-only arrays as arith.Numerators, computed once
    J_num = cached_property(lambda self: self.field.numerators(self.J))
    g_num = cached_property(lambda self: self.field.numerators(self.g))
    g_inv_num = cached_property(lambda self: self.field.numerators(self.g_inv))
    f_num = cached_property(lambda self: self.field.numerators(self.f_matrix))

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
            return KForm.from_vector(self.alg, -self.field.matmul(self.J_num.T, a.vector()))
        return -self.field.matmul(self.J_num.T, a)

    # -- tensor splittings -------------------------------------------------------

    def split_tensor(self, phi):
        """J-(anti)invariant and (anti)symmetric parts; parts sum back exactly."""
        f = self.field
        m = f.numerators(phi.mat if isinstance(phi, Tensor2) else phi)
        pulled = f.matmul_num(self.J_num.T, m, self.J_num)
        scaled = m.num * (pulled.den // m.den)  # m over the denominator of pulled
        return {key: Tensor2(self.alg, f.fractions(num, 2 * den)) for key, num, den in (
            ("j_plus", scaled + pulled.num, pulled.den),
            ("j_minus", scaled - pulled.num, pulled.den),
            ("sym", m.num + m.num.T, m.den),
            ("antisym", m.num - m.num.T, m.den))}

    # -- norms and inner products -------------------------------------------------

    def form_inner(self, a, b):
        return form_inner_product(a, b, self.g_inv_num)

    def tensor_norm_sq(self, phi):
        """Frobenius norm squared w.r.t. g: sum g^ik g^jl phi_ij phi_kl."""
        m = self.field.numerators(phi.mat if isinstance(phi, Tensor2) else phi)
        return self._trace(self.g_inv_num, m, self.g_inv_num, m.T)

    def endo_inner(self, a, b):
        """<A, B>_g = tr(g^-1 A^T g B) for endomorphisms."""
        return self._trace(self.g_inv_num, np.asarray(a).T, self.g_num, b)

    def _trace(self, *ms):
        """tr(ms[0] @ ms[1] @ ...), traced on the integer numerators."""
        prod = self.field.matmul_num(*ms)
        return self.field.fractions(np.trace(prod.num), prod.den)

    def sharp(self, a):
        """Vector dual of a 1-form."""
        return self.field.matmul(self.g_inv_num, a.vector() if isinstance(a, KForm) else a)

    def flat(self, x):
        """1-form dual of a vector."""
        return KForm.from_vector(self.alg, self.field.matmul(self.g_num, x))

    # -- Nijenhuis tensor ----------------------------------------------------------

    @cached_property
    def _nijenhuis(self):
        """N[:, i, j] = N(e_i, e_j) for all i, j, from the contracted brackets."""
        c, J, f = self.alg.structure_num, self.J_num, self.field
        jj = f.einsum_num('kab,ai,bj->kij', c, J, J)   # [J e_i, J e_j]
        jjx = f.einsum_num('kl,laj,ai->kij', J, c, J)  # J [J e_i, e_j]
        jjy = f.einsum_num('kl,lib,bj->kij', J, c, J)  # J [e_i, J e_j]
        # all three over den(c) den(J)^2: one division for the sum
        return f.fractions(jj.num - c.num * J.den ** 2 - jjx.num - jjy.num, 4 * jj.den)

    def nijenhuis(self, x, y):
        """4 N(X,Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY], returns N(X,Y)."""
        return (self._nijenhuis @ np.asarray(y)) @ np.asarray(x)

    def nijenhuis_form(self, x):
        """N_X = g(N(., .), X) as a 2-form."""
        gx = self.field.matmul(self.g_num, x).reshape(1, self.dim)
        return KForm.from_matrix(self.alg, self._contract_first(gx, self._nijenhuis))

    def nijenhuis_tensor(self, x):
        """N(X) = g(N(X, .), .) as a Tensor2."""
        return Tensor2(self.alg, self.field.einsum('kij,i,lk->jl', self._nijenhuis,
                                                   np.asarray(x), self.g_num))

    def nijenhuis_image(self):
        """Basis of span{N(e_i, e_j)} as a list of vectors."""
        cols = [self._nijenhuis[:, i, j] for i, j in combinations(range(self.dim), 2)
                if not self.field.is_zero(self._nijenhuis[:, i, j])]
        return arith.row_space(np.array(cols), self.field)

    # -- Lee form ----------------------------------------------------------------

    def lee_form(self) -> LeeData:
        return self._lee

    @cached_property
    def _lee(self) -> LeeData:
        if not self.field.is_nondegenerate(self.f_matrix):
            raise NondegeneracyFailure("fundamental form is degenerate")
        theta = KForm(self.alg, 1)
        if self.n > 1:
            delta_f = self.codifferential(Tensor2(self.alg, self.f_matrix))
            theta = self.field.scalar(1, self.n - 1) * self.j_one_form(delta_f)
        dF = self.F.d()
        solve_residual = (dF - theta.wedge(self.F)).max_abs() / max(1.0, dF.max_abs())
        theta_vec = theta.vector()
        T = self.field.matmul(self.g_inv_num, theta_vec)
        JT = self.field.matmul(self.J_num, T)
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
    def Dtheta(self) -> Tensor2:
        """D theta, the covariant derivative of the Lee form."""
        from . import connection
        return connection.covariant_one_form(self, self._lee.theta)

    @cached_property
    def delta_theta(self):
        """delta theta = -sum_ab g^{ab} (D theta)_{ab}, read off the cached D theta."""
        return -self._trace(self.g_inv_num, self.Dtheta.mat)

    def codifferential(self, obj):
        """delta^g on 2-tensors and on forms of degree <= 2, via the
        covariant-derivative trace (a 2-form goes through its matrix)."""
        if isinstance(obj, KForm):
            if obj.degree == 0:
                return KForm(self.alg, 0)
            if obj.degree == 1:  # -sum_ab g^{ab} (D alpha)_{ab}
                from . import connection
                d_alpha = connection.covariant_one_form(self, obj)
                return KForm(self.alg, 0, {(): -self._trace(self.g_inv_num, d_alpha.mat)})
            if obj.degree != 2:
                raise UnsupportedDimension("codifferential of forms of degree > 2")
            obj = Tensor2(self.alg, obj.matrix())
        if isinstance(obj, Tensor2):
            # (D_{e_a} phi)(e_b, .) = -(Gamma_a^T phi + phi Gamma_a)[b], traced with g^{ab}
            f = self.field
            gn = self.connection.gamma_num
            out = (f.matmul(f.einsum('ab,akb->k', self.g_inv_num, gn), obj.mat)
                   + f.einsum('ab,bk,akc->c', self.g_inv_num, obj.mat, gn))
            return KForm.from_vector(self.alg, out)
        raise DimensionMismatch("codifferential expects a KForm or Tensor2")

    # -- Lie derivatives -----------------------------------------------------------

    def lie_derivative_J(self, x):
        """(L_X J)(Y) = [X, JY] - J[X, Y] as an endomorphism matrix."""
        f, J = self.field, self.J_num
        ad = f.numerators(self.alg.ad(np.asarray(x)))
        return f.fractions(f.matmul_num(ad, J).num - f.matmul_num(J, ad).num, ad.den * J.den)

    @cached_property
    def _lie_F(self):
        """L[c] = L_{e_c} F as a matrix, from cf[c, a, b] = F([e_c, e_a], e_b)."""
        cf = self.field.einsum('kca,kb->cab', self.alg.structure_num, self.f_num)
        return cf.transpose(0, 2, 1) - cf

    def lie_derivative_F(self, x):
        """(L_X F)(Y, Z) = -F([X,Y], Z) - F(Y, [X,Z]) as a 2-form."""
        x = np.asarray(x).reshape(1, self.dim)
        return KForm.from_matrix(self.alg, self._contract_first(x, self._lie_F))

    def _contract_first(self, x, table):
        """sum_c x[0, c] table[c] (``np.tensordot(x, table, 1)``) as one product."""
        return self.field.matmul(x, table.reshape(self.dim, -1)).reshape(self.dim, self.dim)

    @cached_property
    def automorphisms(self):
        """Basis of the infinitesimal automorphisms {X : L_X F = 0}."""
        rows, cols = np.triu_indices(self.dim, 1)
        return arith.nullspace(self._lie_F[:, rows, cols].T, self.field)

    def lie_derivative_g(self, x):
        f, g = self.field, self.g_num
        ad = f.numerators(self.alg.ad(np.asarray(x)))
        return Tensor2(self.alg, f.fractions(-(f.matmul_num(ad.T, g).num
                                               + f.matmul_num(g, ad).num), ad.den * g.den))

    # -- transforms ------------------------------------------------------------------

    def rescaled(self, factor):
        """Same J, metric scaled: g -> factor * g."""
        factor = self.field.scalar(factor)
        return AlmostHermitianStructure(self.alg, self.J, factor * self.g,
                                        tol=self.tol, validate=False, name=self.name)

    def change_basis(self, p):
        """Transport the whole structure to the basis with columns of P."""
        alg2 = self.alg.change_basis(p)
        f = alg2.field
        pm = f.array(p)
        pinv, pm = arith.invert(pm, f), f.numerators(pm)
        j2 = f.matmul(pinv, self.J, pm)
        g2 = f.matmul(pm.T, self.g, pm)
        return AlmostHermitianStructure(alg2, j2, g2, tol=self.tol, validate=False,
                                        name=self.name)

    def as_float(self):
        if not self.exact:
            return self
        return AlmostHermitianStructure(
            self.alg.as_float(),
            self.J.astype(float), self.g.astype(float),
            tol=self.tol, validate=False, name=self.name)

    def basis_vector(self, i):
        v = self.field.zeros(self.dim)
        v[i] = self.field.scalar(1)
        return v

    def __repr__(self):
        return (f"AlmostHermitianStructure(dim={self.dim}, exact={self.exact}"
                + (f", name={self.name!r}" if self.name else "") + ")")
