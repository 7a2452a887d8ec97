from fractions import Fraction

import numpy as np
import pytest

from lcak import arith, connection, identities
from lcak.algebra import LieAlgebra, abelian_algebra
from lcak.errors import UnsupportedDimension, ValidationError
from lcak.forms import KForm
from lcak.fuzzing import random_hermitian_structure
from lcak.hermitian import AlmostHermitianStructure, Tensor2, validate_structure


def split_j():
    return [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_validate_structure_a41(a41):
    report = validate_structure(a41.J, a41.g, a41.alg)
    assert report.ok and report.compatibility_residual == 0


def test_validate_structure_j_identity_invalid():
    report = validate_structure(np.eye(4, dtype=int), np.eye(4, dtype=int))
    assert not report.j_squared_ok and not report.ok
    with pytest.raises(ValidationError) as err:
        AlmostHermitianStructure(abelian_algebra(4), np.eye(4, dtype=int))
    assert err.value.code == "J_NOT_ACS"


def test_validate_structure_degenerate_metric():
    g = np.diag([1, 1, 1, 0]).astype(object)
    report = validate_structure(np.array(split_j(), dtype=object), g)
    assert not report.g_positive_definite and not report.ok


def test_fundamental_forms_match_catalog(a41, a48):
    assert a41.F == KForm.from_terms(a41.alg, {(1, 3): 1, (2, 4): 1})
    assert a48.F == KForm.from_terms(a48.alg, {(1, 4): 1, (2, 3): 1})


def test_j_one_form_convention(a41, a48):
    lee = a41.lee_form()
    assert a41.j_one_form(lee.theta) == KForm.from_terms(a41.alg, {(1,): 1})
    assert a48.j_one_form(a48.lee_form().theta) == KForm.from_terms(a48.alg, {(1,): 1})


def test_j_one_form_is_almost_complex(a41, rng):
    for _ in range(10):
        alpha = KForm.from_vector(a41.alg, np.array(
            [Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object))
        assert a41.j_one_form(a41.j_one_form(alpha)) == -1 * alpha


def test_dj_theta_identity_a41(a41):
    lee = a41.lee_form()
    djt = lee.jtheta.d()
    assert djt == KForm.from_terms(a41.alg, {(2, 4): -1})
    assert djt == -1 * lee.norm_sq * a41.F + lee.theta.wedge(lee.jtheta)


def test_split_tensor_a41_dtheta(a41):
    dth = connection.covariant_one_form(a41, a41.lee_form().theta)
    sym = dth.sym()
    expected = arith.Field(True).zeros(4, 4)
    expected[1, 3] = Fraction(1, 2)
    expected[3, 1] = Fraction(1, 2)
    assert arith.matrices_equal(sym.mat, expected)
    parts = a41.split_tensor(sym)
    assert parts["j_plus"].max_abs() == 0          # entirely J-anti-invariant
    assert arith.matrices_equal(parts["j_minus"].mat, expected)


def test_split_tensor_a48_dtheta(a48):
    dth = connection.covariant_one_form(a48, a48.lee_form().theta)
    expected = arith.Field(True).zeros(4, 4)
    expected[1, 1] = Fraction(-1)
    expected[2, 2] = Fraction(1)
    assert arith.matrices_equal(dth.sym().mat, expected)
    assert a48.split_tensor(dth)["j_plus"].max_abs() == 0


def test_split_tensor_metric_is_j_invariant(a41):
    parts = a41.split_tensor(Tensor2(a41.alg, a41.g))
    assert parts["j_minus"].max_abs() == 0
    assert parts["antisym"].max_abs() == 0


def test_split_tensor_recombines_and_is_idempotent(rng):
    s = random_hermitian_structure(rng, dim=4)
    m = rng.standard_normal((4, 4))
    parts = s.split_tensor(m)
    assert arith.max_abs(parts["j_plus"].mat + parts["j_minus"].mat - m) <= 1e-12
    assert arith.max_abs(parts["sym"].mat + parts["antisym"].mat - m) <= 1e-12
    again = s.split_tensor(parts["j_plus"])
    assert again["j_minus"].max_abs() <= 1e-12
    assert arith.max_abs(again["j_plus"].mat - parts["j_plus"].mat) <= 1e-12


def test_nijenhuis_values(a41, a48):
    n41 = a41.nijenhuis(a41.basis_vector(0), a41.basis_vector(1))
    assert n41[1] == Fraction(1, 4) and sum(1 for v in n41 if v != 0) == 1
    n48 = a48.nijenhuis(a48.basis_vector(0), a48.basis_vector(1))
    assert n48[2] == Fraction(1, 2) and sum(1 for v in n48 if v != 0) == 1


def test_nijenhuis_abelian_vanishes():
    s = AlmostHermitianStructure(abelian_algebra(4), split_j())
    assert arith.max_abs(s._nijenhuis) == 0


def test_nijenhuis_antisymmetry(a48, rng):
    x = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
    y = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
    assert all(v == 0 for v in a48.nijenhuis(x, y) + a48.nijenhuis(y, x))
    assert all(v == 0 for v in a48.nijenhuis(x, x))


def test_nijenhuis_image(a41, a48):
    # A4_1: span(e2, e4); A4_8: span(e2, e3)
    img41 = a41.nijenhuis_image()
    assert len(img41) == 2
    for vec in img41:
        assert vec[0] == 0 and vec[2] == 0
    img48 = a48.nijenhuis_image()
    assert len(img48) == 2
    for vec in img48:
        assert vec[0] == 0 and vec[3] == 0


def test_orthogonal_to_image_closed_under_j(a41, a48, rng):
    # if X is g-orthogonal to im N then JX is too
    for s in (a41, a48):
        img = s.nijenhuis_image()
        mat = np.array([list(v) for v in img], dtype=object)
        kernel = arith.nullspace(mat @ s.g, s.field)
        for x in kernel:
            jx = s.J @ x
            for vec in img:
                assert vec @ s.g @ jx == 0


def test_lee_form_catalog(a41, a48, abelian_kahler):
    lee = a41.lee_form()
    assert lee.theta == KForm.from_terms(a41.alg, {(3,): -1})
    assert all(a == b for a, b in zip(lee.T, [0, 0, -1, 0]))
    assert all(a == b for a, b in zip(lee.V, [-1, 0, 0, 0]))
    assert lee.norm_sq == 1
    assert a48.lee_form().theta == KForm.from_terms(a48.alg, {(4,): -1})
    lee0 = abelian_kahler.lee_form()
    assert lee0.theta.is_zero() and arith.max_abs(lee0.V) == 0


def test_lee_data_invariants(a41):
    lee = a41.lee_form()
    # g(T, .) = theta, i_V F = theta, JV = T, eta = -J theta
    assert KForm.from_vector(a41.alg, a41.g @ lee.T) == lee.theta
    assert a41.F.contract(lee.V) == lee.theta
    assert all(a == b for a, b in zip(a41.J @ lee.V, lee.T))
    assert lee.eta == -1 * lee.jtheta


def test_codifferential_unimodular_kills_one_forms(a41, a48, rng):
    for s in (a41, a48):
        for _ in range(5):
            alpha = KForm.from_vector(s.alg, np.array(
                [Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object))
            delta = s.codifferential(alpha)
            assert delta.coeffs.get((), 0) == 0


def test_codifferential_abelian_everything():
    s = AlmostHermitianStructure(abelian_algebra(4), split_j())
    assert s.codifferential(s.F).is_zero()
    assert s.codifferential(Tensor2(s.alg, arith.Field(True).eye(4))).is_zero()


def test_codifferential_f_proportional_to_theta(a41, a48):
    # J delta^g F = (n-1) theta fixes the normalization (factor 1 in dim 4)
    for s in (a41, a48):
        assert s.j_one_form(s.codifferential(s.F)) == s.lee_form().theta
    assert identities.lee_codifferential_residual(a41) == 0


def test_codifferential_of_a_three_form_is_unsupported(a41):
    with pytest.raises(UnsupportedDimension):
        a41.codifferential(a41.F.wedge(a41.lee_form().theta))


def test_codifferential_adjoint_on_unimodular(rng):
    # <d alpha, beta> = <alpha, delta beta> pointwise on unimodular algebras
    from itertools import combinations
    from lcak.fuzzing import random_unimodular_4d, random_compatible_pair
    for _ in range(5):
        alg = random_unimodular_4d(rng)
        jm, g = random_compatible_pair(rng, 4)
        s = AlmostHermitianStructure(alg, jm, g)
        alpha = KForm.from_vector(s.alg, rng.standard_normal(4))
        beta = KForm(s.alg, 2, {k: float(rng.standard_normal())
                                for k in combinations(range(4), 2)})
        lhs = s.form_inner(alpha.d(), beta)
        rhs = s.form_inner(alpha, s.codifferential(beta))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_lie_derivative_f_by_lee_field(a41):
    assert a41.lie_derivative_F(a41.lee_form().T).is_zero()


def test_lie_derivative_abelian():
    s = AlmostHermitianStructure(abelian_algebra(4), split_j())
    x = np.array([Fraction(1), Fraction(2), Fraction(-1), Fraction(3)], dtype=object)
    assert arith.max_abs(s.lie_derivative_J(x)) == 0
    assert s.lie_derivative_F(x).is_zero()


def test_lie_derivative_nijenhuis_identity(rng):
    for _ in range(8):
        s = random_hermitian_structure(rng, dim=4)
        assert identities.lie_derivative_nijenhuis_residual(s) <= 1e-9


def test_cyclic_nijenhuis_on_catalog(a41, a48):
    assert identities.nijenhuis_cyclic_residual(a41) == 0
    assert identities.nijenhuis_cyclic_residual(a48) == 0


def test_orthogonality_implies_symmetric_nt_and_invariant_djtheta(rng):
    # fuzz over LCS samples: whenever T orth im N holds, N(T) is symmetric
    # and dJtheta is J-invariant
    from lcak.conditions import classify_metric
    from lcak.fuzzing import _conjugated_lcs_4d, random_params_4d, build_almost_abelian
    hits = 0
    for trial in range(16):
        if trial % 2:
            s = _conjugated_lcs_4d(rng)
        else:
            params = random_params_4d(rng, "lee_closed")
            s = build_almost_abelian(params)[1].as_float()
        rep = classify_metric(s)
        if not (rep.flags["is_lcs"] and rep.flags["T_orthogonal_to_imN"]):
            continue
        hits += 1
        lee = s.lee_form()
        nt = s.nijenhuis_tensor(lee.T)
        assert nt.antisym().max_abs() <= 1e-8 * max(1.0, nt.max_abs())
        djt = lee.jtheta.d()
        jm = s.split_tensor(djt.matrix())["j_minus"].max_abs()
        assert jm <= 1e-8 * max(1.0, djt.max_abs())
    assert hits >= 4  # catalog conjugates guarantee coverage


def test_rescaled_structure(a41):
    s = a41.rescaled(4)
    lee = s.lee_form()
    assert lee.theta == a41.lee_form().theta
    assert lee.norm_sq == Fraction(1, 4)


def test_change_basis_transports_everything(a41):
    p = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]],
                 dtype=object)
    moved = a41.change_basis(p)
    assert moved.validation.ok
    from lcak.conditions import classify_metric
    rep = classify_metric(moved)
    assert rep.flags["pluricanonical"] and not rep.flags["vaisman"]
