"""Residuals of the structural tensor identities used as cross-oracles.

Every function here evaluates both sides of one identity from first
principles and returns a scalar residual (max-abs, divided by a scale so
float tolerances are relative).  The test-suite and the fuzz harness drive
these; a correct implementation keeps all of them at zero.
"""
from __future__ import annotations

import numpy as np

from . import arith, connection
from .errors import UnsupportedDimension
from .forms import KForm, form_norm_sq, hodge_star
from .hermitian import AlmostHermitianStructure, Tensor2


def dtheta_anti_invariant_twist(structure, dtheta: KForm) -> KForm:
    """J (d theta)^{J,-} with (J phi)(X, Y) = -phi(JX, Y)."""
    f, J = structure.field, structure.J_num
    m = f.numerators(dtheta.matrix())
    pulled = f.matmul_num(J.T, m, J)
    # 2 (d theta)^{J,-} over the denominator of pulled, then -J^T times it
    twice_minus = m.num * (pulled.den // m.den) - pulled.num
    out = f.matmul_num(J.T, arith.Numerators(twice_minus, pulled.den))
    return KForm.from_matrix(structure.alg, f.fractions(-out.num, 2 * out.den))


def sym_j_plus_twisted(structure, dtheta_tensor: Tensor2) -> KForm:
    """(D theta)^{sym, J, +}_{J., .} as a 2-form."""
    sym = dtheta_tensor.sym()
    jplus = structure.split_tensor(sym)["j_plus"].mat
    return KForm.from_matrix(structure.alg, structure.field.matmul(structure.J_num.T, jplus))


def dj_theta_expansion_residual(structure: AlmostHermitianStructure) -> float:
    """d(J theta) = 2 (D theta)^{sym,J,+}_{J.,.} + J (d theta)^{J,-}
    + 2 N_{JT} + theta ^ J theta - |theta|^2 F."""
    lee = structure.lee_form()
    dth = structure.Dtheta
    lhs = lee.djtheta
    rhs = (2 * sym_j_plus_twisted(structure, dth)
           + dtheta_anti_invariant_twist(structure, lee.dtheta)
           + 2 * structure.nijenhuis_form(lee.JT)
           + lee.theta.wedge(lee.jtheta)
           - lee.norm_sq * structure.F)
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    return diff.max_abs() / scale


def covariant_f_residual(structure: AlmostHermitianStructure) -> float:
    """D_X F = 1/2 (X^flat ^ J theta + (JX)^flat ^ theta) + 2 N_{JX},
    max over basis X.  Valid for LCS structures (any structure in dim 4)."""
    lee = structure.lee_form()
    worst = 0.0
    half = structure.field.scalar(1, 2)
    for i in range(structure.dim):
        x = structure.basis_vector(i)
        lhs = connection.covariant_F(structure, i)
        xf = structure.flat(x)
        jxf = structure.flat(structure.J @ x)
        rhs = (half * (xf.wedge(lee.jtheta) + jxf.wedge(lee.theta))
               + 2 * structure.nijenhuis_form(structure.J @ x))
        diff = lhs - rhs
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
        worst = max(worst, diff.max_abs() / scale)
    return worst


def chern_ricci_residual(structure: AlmostHermitianStructure) -> float:
    """gamma^0 from the curvature of nabla^0 against rho* + Phi."""
    return connection.canonical_connection_forms(structure).gamma0_identity_residual


def bochner_residual(structure: AlmostHermitianStructure, alpha) -> float:
    """(delta (D a)^{J,+} - delta (D a)^{J,-})(X)
    = rho*(a^sharp, JX) - (n-1) D a(JT, JX) - sum_i D a(J e_i, (D_{e_i} J) X),
    max over basis X.  T is the Lee field of dF = theta ^ F."""
    alpha = np.asarray(alpha)
    s = structure
    da = connection.covariant_one_form(s, alpha)
    parts = s.split_tensor(da)
    lhs = (s.codifferential(parts["j_plus"]) - s.codifferential(parts["j_minus"])).vector()
    lee = s.lee_form()
    rho = connection.star_ricci(s)
    # entry x of each term at X = e_x; the sum is g^{ab} Da(J e_a, (D_{e_b} J) e_x)
    rhs = ((s.sharp(alpha) @ rho.matrix() - (s.n - 1) * (lee.JT @ da.mat)) @ s.J
           - s.field.einsum('ab,aq,bqx->x', s.g_inv, s.J.T @ da.mat, s.connection.DJ))
    diff = lhs - rhs
    scale = max(1.0, arith.max_abs(lhs), arith.max_abs(rhs))
    return arith.max_abs(diff) / scale


def j_invariant_wedge_residual(structure, phi: KForm, psi: KForm) -> float:
    """phi ^ psi ^ F^{n-2} = (1/(n(n-1))) (<phi,F><psi,F> - <phi,psi>) F^n
    for J-invariant phi and any psi (n >= 2)."""
    s = structure
    n = s.n
    if n < 2:
        raise UnsupportedDimension("needs dim >= 4")
    fpow = KForm(s.alg, 0, {(): s.field.scalar(1)})
    for _ in range(n - 2):
        fpow = fpow.wedge(s.F)
    lhs = phi.wedge(psi).wedge(fpow)
    fn = fpow.wedge(s.F).wedge(s.F)
    coef = (s.form_inner(phi, s.F) * s.form_inner(psi, s.F)
            - s.form_inner(phi, psi)) / s.field.scalar(n * (n - 1))
    rhs = coef * fn
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    return diff.max_abs() / scale


def nijenhuis_cyclic_residual(structure) -> float:
    """g(N(X,Y),Z) + g(N(Y,Z),X) + g(N(Z,X),Y) over basis triples."""
    # ng[i, j, k] = g(N(e_i, e_j), e_k), summed cyclically on the numerators
    ng = structure.field.einsum_num('mij,mk->ijk', structure._nijenhuis, structure.g_num)
    cyclic = ng.num + ng.num.transpose(2, 0, 1) + ng.num.transpose(1, 2, 0)
    return float(structure.field.scalar(np.max(np.abs(cyclic)), ng.den))


def lee_codifferential_residual(structure) -> float:
    """J delta^g F = (n - 1) theta (the adopted Lee normalization)."""
    s = structure
    lee = s.lee_form()
    delta_f = s.codifferential(s.F)
    lhs = s.j_one_form(delta_f)
    rhs = (s.n - 1) * lee.theta
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    return diff.max_abs() / scale


def lie_derivative_nijenhuis_residual(structure) -> float:
    """L_{JT} J - J (L_T J) = 4 N(T, .) as endomorphisms."""
    s = structure
    lee = s.lee_form()
    lhs = s.lie_derivative_J(lee.JT) - s.J @ s.lie_derivative_J(lee.T)
    rhs = np.array([4 * s.nijenhuis(lee.T, s.basis_vector(j)) for j in range(s.dim)]).T
    diff = lhs - rhs
    scale = max(1.0, arith.max_abs(lhs), arith.max_abs(rhs))
    return arith.max_abs(diff) / scale


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

def self_dual_split_residual(structure) -> float:
    """The stated self-dual / anti-self-dual pieces of d J theta against the
    hodge-star eigenspace projections (dim 4 only)."""
    s = structure
    if s.dim != 4:
        raise UnsupportedDimension("self-dual split needs dim 4")
    lee = s.lee_form()
    theta, djt, delta_theta = lee.theta, lee.djtheta, s.delta_theta
    dth = s.Dtheta
    half = s.field.scalar(1, 2)
    sd_claim = ((-(delta_theta + lee.norm_sq)) * half * s.F
                + 2 * s.nijenhuis_form(lee.JT)
                + dtheta_anti_invariant_twist(s, lee.dtheta))
    asd_claim = (2 * sym_j_plus_twisted(s, dth)
                 + theta.wedge(lee.jtheta)
                 + (delta_theta - lee.norm_sq) * half * s.F)
    star = hodge_star(djt, s.g_inv, s.volume)
    sd = half * (djt + star)
    asd = half * (djt - star)
    scale = max(1.0, djt.max_abs(), sd_claim.max_abs(), asd_claim.max_abs())
    return max((sd - sd_claim).max_abs(), (asd - asd_claim).max_abs()) / scale


def dim4_integrand_value(structure) -> float:
    """(delta theta)^2 - 2 |theta|^2 delta theta + |2 N_{JT} + J(d theta)^{J,-}|^2
    - 4 |(D theta)^{sym,J,+}_{J.,.}|^2 + 2 g([T,JT], JT).

    Pointwise zero on unimodular invariant structures in dim 4.
    """
    s = structure
    if s.dim != 4:
        raise UnsupportedDimension("integrand needs dim 4")
    lee = s.lee_form()
    delta_theta = s.delta_theta
    dth = s.Dtheta
    sd_part = 2 * s.nijenhuis_form(lee.JT) + dtheta_anti_invariant_twist(s, lee.dtheta)
    asd_part = sym_j_plus_twisted(s, dth)
    bracket_t_jt = s.alg.bracket(lee.T, lee.JT)
    val = (delta_theta * delta_theta
           - 2 * lee.norm_sq * delta_theta
           + form_norm_sq(sd_part, s.g_inv_num)
           - 4 * form_norm_sq(asd_part, s.g_inv_num)
           + 2 * (bracket_t_jt @ s.g @ lee.JT))
    return float(val)


def unimodular_pluricanonical_defect(structure):
    """|(D theta)^{J,+}|^2 + 2 <D_{JT} theta, J theta>, zero on unimodular
    LCS structures with T orthogonal to im N (both terms reported)."""
    s = structure
    lee = s.lee_form()
    dth = s.Dtheta
    jplus = s.split_tensor(dth)["j_plus"]
    d_jt_theta = lee.JT @ dth.mat  # (D_{JT} theta)(e_j) row vector
    inner = d_jt_theta @ s.g_inv @ lee.jtheta.vector()
    return s.tensor_norm_sq(jplus) + 2 * inner


def cartan_formula_residual(structure, form: KForm, x) -> float:
    """L_X = i_X d + d i_X on invariant forms."""
    lhs = form.lie_derivative(x)
    rhs = form.d().contract(x)
    if form.degree >= 1:
        rhs = rhs + form.contract(x).d()
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    return diff.max_abs() / scale
