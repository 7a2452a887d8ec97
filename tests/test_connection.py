from fractions import Fraction

import numpy as np

from identity_helpers import self_dual_split_residual
from lcak import arith, connection, identities
from lcak.algebra import abelian_algebra
from lcak.forms import KForm
from lcak.fuzzing import (random_compatible_pair, random_hermitian_structure,
                       random_unimodular_4d)
from lcak.hermitian import AlmostHermitianStructure


def test_abelian_connection_vanishes():
    j = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    s = AlmostHermitianStructure(abelian_algebra(4), j)
    assert all(arith.max_abs(g) == 0 for g in s.connection.gamma)
    assert all(arith.max_abs(s.curvature.endos[i][j]) == 0
               for i in range(4) for j in range(4))
    assert connection.star_ricci(s).is_zero()


def test_koszul_residuals_catalog(a41, a48):
    for s in (a41, a48):
        table = s.connection
        assert table.metric_residual() == 0
        assert table.torsion_residual() == 0
        assert table.koszul_residual() == 0


def test_koszul_residuals_random(rng):
    for _ in range(6):
        s = random_hermitian_structure(rng, dim=4)
        assert s.connection.torsion_residual() <= 1e-10
        assert s.connection.metric_residual() <= 1e-10
        assert s.connection.koszul_residual() <= 1e-9


def test_dtheta_component_a41(a41):
    dth = connection.covariant_one_form(a41, a41.lee_form().theta)
    assert dth[1, 3] == Fraction(1, 2)  # D theta (e2, e4) = 1/2


def test_covariant_j_parallel_along_lee_field(a41):
    lee = a41.lee_form()
    for x in (lee.T, lee.JT):
        total = sum((x[i] * connection.covariant_J(a41, i) for i in range(4)),
                    arith.Field(True).zeros(4, 4))
        assert arith.max_abs(total) == 0


def test_covariant_derivative_abelian_vanishes():
    j = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    s = AlmostHermitianStructure(abelian_algebra(4), j)
    for i in range(4):
        assert connection.covariant_F(s, i).is_zero()
        assert arith.max_abs(connection.covariant_J(s, i)) == 0


def test_covariant_f_matches_dj_pairing(a41, rng):
    # (D_X F)(Y, Z) = g((D_X J) Y, Z)
    for s in (a41,):
        for i in range(4):
            lhs = connection.covariant_F(s, i).matrix()
            rhs = (connection.covariant_J(s, i)).T @ s.g
            assert arith.max_abs(lhs - rhs.T) == 0 or arith.max_abs(lhs - rhs) == 0


def test_covariant_f_identity_catalog(a41, a48):
    assert identities.covariant_f_residual(a41) == 0
    assert identities.covariant_f_residual(a48) == 0


def test_curvature_invariants_random(rng):
    for _ in range(5):
        alg = random_unimodular_4d(rng)
        jm, g = random_compatible_pair(rng, 4)
        s = AlmostHermitianStructure(alg, jm, g)
        curv = s.curvature
        assert curv.antisymmetry_residual() <= 1e-9
        assert curv.pair_symmetry_residual() <= 1e-9
        assert curv.bianchi_residual() <= 1e-9


def test_star_ricci_contraction_a41(a41):
    lee = a41.lee_form()
    rho = connection.star_ricci(a41)
    assert rho(lee.T, lee.JT) == 0


def gram_schmidt(g):
    """A g-orthonormal frame, rows of the returned matrix (float only)."""
    gf = np.asarray(g, dtype=float)
    n = gf.shape[0]
    basis = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for u in basis:
            v = v - (u @ gf @ v) * u
        nrm = float(v @ gf @ v)
        if nrm <= 0:
            raise ValueError("metric not positive definite")
        basis.append(v / nrm ** 0.5)
    return np.array(basis)


def star_ricci_frame_sum(structure, frame) -> KForm:
    """rho* computed as 1/2 sum_i g(R_{X,Y} f_i, J f_i) over the given frame,
    the cross-check for the trace formula; ``frame`` rows must be g-orthonormal."""
    curv = structure.curvature
    g = structure.g
    J = structure.J
    dim = structure.dim
    coeffs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = 0
            for f in frame:
                val = val + 0.5 * (curv.endos[i][j] @ f) @ g @ (J @ f)
            if val != 0:
                coeffs[(i, j)] = val
    return KForm(structure.alg, 2, coeffs)


def test_star_ricci_frame_independent(a41, rng):
    sf = a41.as_float()
    frame1 = gram_schmidt(sf.g)
    rho_frame = star_ricci_frame_sum(sf, frame1)
    rho_trace = connection.star_ricci(sf)
    assert (rho_frame - rho_trace).max_abs() <= 1e-10
    # second frame: permute the basis before orthonormalizing
    perm = np.eye(4)[[2, 0, 3, 1]]
    frame2 = [perm @ f for f in gram_schmidt(perm.T @ sf.g @ perm)]
    frame2 = [f for f in np.array(frame2) @ perm.T]
    rho_frame2 = star_ricci_frame_sum(sf, np.array(frame2) @ perm)
    # any g-orthonormal frame gives the same 2-form
    gram = np.array([[f1 @ sf.g @ f2 for f2 in frame2] for f1 in frame2], dtype=float)
    if np.allclose(gram, np.eye(4)):
        assert (rho_frame2 - rho_trace).max_abs() <= 1e-10


def test_canonical_forms_abelian_kahler(abelian_kahler):
    rf = connection.canonical_connection_forms(abelian_kahler)
    assert rf.phi.is_zero() and rf.gamma0.is_zero() and rf.rho_star.is_zero()
    assert rf.gamma0_identity_residual == 0


def test_phi_contraction_a41(a41):
    rf = connection.canonical_connection_forms(a41)
    lee = a41.lee_form()
    assert rf.phi(lee.T, lee.JT) == 0
    wedge = lee.theta.wedge(lee.jtheta)
    assert a41.form_inner(rf.phi, wedge) == 0


def test_gamma0_two_routes_random(rng):
    for _ in range(6):
        s = random_hermitian_structure(rng, dim=4)
        assert identities.chern_ricci_residual(s) <= 1e-9


def test_gamma_family_relation(a41):
    rf = connection.canonical_connection_forms(a41)
    djt = a41.lee_form().jtheta.d()
    assert rf.gamma(0) == rf.gamma0
    n = a41.n
    assert rf.chern == rf.gamma0 + (-Fraction(n - 1, 2)) * djt
    assert rf.bismut == rf.gamma0 + Fraction(n - 1, 2) * djt


def test_dj_theta_expansion_fuzz(rng):
    for _ in range(8):
        s = random_hermitian_structure(rng, dim=4)
        assert identities.dj_theta_expansion_residual(s) <= 1e-9


def test_bochner_formula_fuzz(rng):
    for _ in range(6):
        dim = 6 if rng.random() < 0.3 else 4
        s = random_hermitian_structure(rng, dim=dim)
        for _ in range(3):
            assert identities.bochner_residual(s, rng.standard_normal(dim)) <= 1e-8


def test_self_dual_split_matches_hodge(rng, a41):
    assert self_dual_split_residual(a41) == 0
    for _ in range(6):
        s = random_hermitian_structure(rng, dim=4)
        assert self_dual_split_residual(s) <= 1e-9


def test_dim4_unimodular_integrand(rng, a41, a48):
    assert identities.dim4_integrand_value(a41) == 0
    assert identities.dim4_integrand_value(a48) == 0
    for _ in range(6):
        alg = random_unimodular_4d(rng)
        jm, g = random_compatible_pair(rng, 4)
        s = AlmostHermitianStructure(alg, jm, g)
        assert abs(identities.dim4_integrand_value(s)) <= 1e-9


def test_unimodular_pluricanonical_defect(a41, a48):
    assert identities.unimodular_pluricanonical_defect(a41) == 0
    assert identities.unimodular_pluricanonical_defect(a48) == 0


def test_first_canonical_connection_preserves_j(a41):
    # nabla^0 J = 0: Gamma0_i J - J Gamma0_i = -(D_i J) ... check directly
    table = connection.first_canonical_connection(a41)
    for i in range(4):
        dj = table.gamma[i] @ a41.J - a41.J @ table.gamma[i]
        assert arith.max_abs(dj) == 0
