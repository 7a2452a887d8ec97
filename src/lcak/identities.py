"""Residuals of the structural tensor identities used as cross-oracles.

Every function here evaluates both sides of one identity from first
principles and returns a scalar residual (max-abs, divided by a scale so
float tolerances are relative).  The test-suite and the fuzz harness drive
these; a correct implementation keeps all of them at zero.
"""
from __future__ import annotations

from . import arith, connection
from .errors import UnsupportedDimension
from .forms import KForm
from .hermitian import AlmostHermitianStructure


def _relative(lhs, rhs) -> float:
    """max |lhs - rhs| / max(1, max |lhs|, max |rhs|) for two forms or two arrays."""
    size = KForm.max_abs if isinstance(lhs, KForm) else arith.max_abs
    return size(lhs - rhs) / max(1.0, size(lhs), size(rhs))


def dtheta_anti_invariant_twist(structure, dtheta: KForm) -> KForm:
    """J (d theta)^{J,-} with (J phi)(X, Y) = -phi(JX, Y)."""
    J, m = structure.J, dtheta.matrix()
    twice_minus = m - J.T @ m @ J  # 2 (d theta)^{J,-}
    return KForm.from_matrix(structure.alg,
                             structure.field.scalar(-1, 2) * (J.T @ twice_minus))


def sym_j_plus_twisted(structure, dtheta_tensor) -> KForm:
    """(D theta)^{sym, J, +}_{J., .} as a 2-form."""
    sym = structure.split_tensor(dtheta_tensor)["sym"]
    jplus = structure.split_tensor(sym)["j_plus"]
    return KForm.from_matrix(structure.alg, structure.J.T @ jplus)


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
    return _relative(lhs, rhs)


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
        worst = max(worst, _relative(lhs, rhs))
    return worst


def chern_ricci_residual(structure: AlmostHermitianStructure) -> float:
    """gamma^0 from the curvature of nabla^0 against rho* + Phi."""
    return connection.canonical_connection_forms(structure).gamma0_identity_residual


def bochner_residual(structure: AlmostHermitianStructure, alpha) -> float:
    """(delta (D a)^{J,+} - delta (D a)^{J,-})(X)
    = rho*(a^sharp, JX) - (n-1) D a(JT, JX) - sum_i D a(J e_i, (D_{e_i} J) X),
    max over basis X.  T is the Lee field of dF = theta ^ F."""
    s = structure
    alpha = s.field.array(alpha)
    da = connection.covariant_one_form(s, alpha)
    parts = s.split_tensor(da)
    lhs = (s.codifferential(parts["j_plus"]) - s.codifferential(parts["j_minus"])).vector()
    lee = s.lee_form()
    rho = connection.star_ricci(s)
    # entry x of each term at X = e_x; the sum is g^{ab} Da(J e_a, (D_{e_b} J) e_x)
    rhs = ((s.sharp(alpha) @ rho.matrix() - (s.n - 1) * (lee.JT @ da)) @ s.J
           - s.field.einsum('ab,aq,bqx->x', s.g_inv, s.J.T @ da, s.connection.DJ))
    return _relative(lhs, rhs)


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
    return _relative(lhs, coef * fn)


def nijenhuis_cyclic_residual(structure) -> float:
    """g(N(X,Y),Z) + g(N(Y,Z),X) + g(N(Z,X),Y) over basis triples."""
    # ng[i, j, k] = g(N(e_i, e_j), e_k), summed cyclically on the numerators
    ng = structure.field.einsum('mij,mk->ijk', structure._nijenhuis, structure.g)
    return arith.max_abs(ng + ng.transpose(2, 0, 1) + ng.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

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
           + s.form_inner(sd_part, sd_part)
           - 4 * s.form_inner(asd_part, asd_part)
           + 2 * (bracket_t_jt @ s.g @ lee.JT))
    return float(val)


def unimodular_pluricanonical_defect(structure):
    """|(D theta)^{J,+}|^2 + 2 <D_{JT} theta, J theta>, zero on unimodular
    LCS structures with T orthogonal to im N (both terms reported)."""
    s = structure
    lee = s.lee_form()
    dth = s.Dtheta
    jplus = s.split_tensor(dth)["j_plus"]
    d_jt_theta = lee.JT @ dth  # (D_{JT} theta)(e_j) row vector
    inner = d_jt_theta @ s.g_inv @ lee.jtheta.vector()
    return s.tensor_norm_sq(jplus) + 2 * inner
