"""The contracted tensor kernels against plain-loop references.

Every reference below is written from ``sparse_constants()`` with explicit
loops over basis indices, independently of the dense structure tensor the
library contracts.  The Lee data, read off the codifferential, is checked
against a direct solve of dF = theta ^ F.  Exact cases must agree entry for
entry; float cases within a relative bound fixed from float64 round-off.
"""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import dict_forms
from lcak import arith, conditions, connection, identities
from lcak.algebra import LieAlgebra
from lcak.almostabelian import AlmostAbelianParams, build_almost_abelian
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.forms import KForm
from lcak.fuzzing import random_hermitian_structure
from lcak.hermitian import Tensor2
from lcak.specfile import run_report

FLOAT_RTOL = 1e-12


def _rational(rng):
    return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))


def _aa_member(seed, n):
    rng = np.random.default_rng(seed)
    m = 2 * n - 2
    params = AlmostAbelianParams(
        n, _rational(rng), tuple(_rational(rng) for _ in range(m)),
        tuple(_rational(rng) for _ in range(m)),
        tuple(tuple(_rational(rng) for _ in range(m)) for _ in range(m)))
    return build_almost_abelian(params)[1]


def _moved_a48():
    p = [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 2], [0, -1, 1, 0], [1, 0, 0, 1]]
    return catalog_entry("A4_8").change_basis(np.array(p, dtype=object))


CASES = {name: (lambda name=name: catalog_entry(name)) for name in CATALOG_NAMES}
CASES.update({
    "A4_8_moved": _moved_a48,
    "aa_dim6_seed3": lambda: _aa_member(3, 3),
    "aa_dim6_seed4": lambda: _aa_member(4, 3),
    "aa_dim8_seed5": lambda: _aa_member(5, 4),
    "A4_8_moved_float": lambda: _moved_a48().as_float(),
})


@pytest.fixture(params=sorted(CASES))
def structure(request):
    return CASES[request.param]()


# -- loop references -----------------------------------------------------------

def ref_bracket(alg, x, y):
    out = [0] * alg.dim
    for (i, j, k), v in alg.sparse_constants().items():
        out[k - 1] += v * (x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1])
    return out


def unit(dim, i, exact):
    return [(Fraction(1) if exact else 1.0) if k == i else 0 for k in range(dim)]


def ref_jacobi(alg):
    dim, worst = alg.dim, 0.0
    e = [unit(dim, i, alg.exact) for i in range(dim)]
    for i, j, k in combinations(range(dim), 3):
        s = [a + b + c for a, b, c in zip(
            ref_bracket(alg, ref_bracket(alg, e[i], e[j]), e[k]),
            ref_bracket(alg, ref_bracket(alg, e[j], e[k]), e[i]),
            ref_bracket(alg, ref_bracket(alg, e[k], e[i]), e[j]))]
        worst = max([worst] + [abs(float(v)) for v in s])
    return worst


def ref_christoffel(s):
    """D_{e_i} e_j as a list of vectors, from the Koszul formula term by term."""
    dim, g, ginv = s.dim, s.g, s.g_inv
    half = Fraction(1, 2) if s.exact else 0.5
    e = [unit(dim, i, s.exact) for i in range(dim)]

    def inner(x, y):
        return sum(x[a] * g[a, b] * y[b] for a in range(dim) for b in range(dim))

    table = {}
    for i in range(dim):
        for j in range(dim):
            w = [inner(ref_bracket(s.alg, e[i], e[j]), e[k])
                 - inner(ref_bracket(s.alg, e[j], e[k]), e[i])
                 + inner(ref_bracket(s.alg, e[k], e[i]), e[j]) for k in range(dim)]
            table[i, j] = [half * sum(ginv[m, k] * w[k] for k in range(dim))
                           for m in range(dim)]
    return table


def ref_nijenhuis(s, x, y):
    dim, J = s.dim, s.J
    quarter = Fraction(1, 4) if s.exact else 0.25

    def jv(v):
        return [sum(J[a, b] * v[b] for b in range(dim)) for a in range(dim)]

    br = lambda a, b: ref_bracket(s.alg, a, b)  # noqa: E731
    terms = zip(br(jv(x), jv(y)), br(x, y), jv(br(jv(x), y)), jv(br(x, jv(y))))
    return [quarter * (a - b - c - d) for a, b, c, d in terms]


def assert_same(got, want, exact):
    got = np.asarray(got, dtype=object if exact else float)
    want = np.asarray(want, dtype=object if exact else float)
    assert got.shape == want.shape
    if exact:
        assert all(a == b for a, b in zip(got.ravel(), want.ravel()))
    else:
        scale = max(1.0, arith.max_abs(want))
        assert arith.max_abs(got - want) <= FLOAT_RTOL * scale


# -- kernels -------------------------------------------------------------------

def test_bracket_and_ad_match_loops(structure):
    alg = structure.alg
    rng = np.random.default_rng(alg.dim)
    for _ in range(3):
        x = alg.field.array([_rational(rng) if alg.exact else float(_rational(rng))
                             for _ in range(alg.dim)])
        y = alg.field.array([_rational(rng) if alg.exact else float(_rational(rng))
                             for _ in range(alg.dim)])
        assert_same(alg.bracket(x, y), ref_bracket(alg, x, y), alg.exact)
        ad_ref = [[ref_bracket(alg, x, unit(alg.dim, j, alg.exact))[k]
                   for j in range(alg.dim)] for k in range(alg.dim)]
        assert_same(alg.ad(x), ad_ref, alg.exact)
    for i, j in combinations(range(alg.dim), 2):
        want = ref_bracket(alg, unit(alg.dim, i, alg.exact), unit(alg.dim, j, alg.exact))
        assert_same(alg.basis_bracket(i, j), want, alg.exact)


def test_jacobi_residual_matches_loops(structure):
    alg = structure.alg
    got = alg.jacobi_residual()
    assert isinstance(got, float)
    if alg.exact:
        assert got == ref_jacobi(alg) == 0
    else:
        assert abs(got - ref_jacobi(alg)) <= FLOAT_RTOL


def test_jacobi_residual_of_planted_non_lie_bracket():
    # [e1,e2] = e3, [e3,e4] = 2/3 e1: the cyclic sums on (1,2,4) and (2,3,4)
    # are 2/3 e1 and 2/3 e3, the others vanish
    alg = LieAlgebra(4, {(1, 2): {3: 1}, (3, 4): {1: Fraction(2, 3)}})
    assert alg.jacobi_residual() == ref_jacobi(alg) == float(Fraction(2, 3))
    assert not alg.validate().ok


def test_koszul_table_matches_loops(structure):
    table = ref_christoffel(structure)
    gamma = structure.connection.gamma
    for (i, j), col in table.items():
        assert_same(gamma[i][:, j], col, structure.exact)


def test_connection_residuals_vanish(structure):
    conn = structure.connection
    residuals = (conn.koszul_residual(), conn.torsion_residual(), conn.metric_residual())
    if structure.exact:
        assert residuals == (0, 0, 0)
    else:
        assert max(residuals) <= FLOAT_RTOL * max(1.0, arith.max_abs(structure.g))


def test_nijenhuis_table_matches_loops(structure):
    s = structure
    dim = s.dim
    e = [unit(dim, i, s.exact) for i in range(dim)]
    for i, j in combinations(range(dim), 2):
        want = ref_nijenhuis(s, e[i], e[j])
        assert_same(s._nijenhuis[:, i, j], want, s.exact)
        assert_same(s.nijenhuis(np.array(e[i]), np.array(e[j])), want, s.exact)
    x = s.lee_form().T
    cols = [ref_nijenhuis(s, list(x), e[j]) for j in range(dim)]
    want = [[sum(s.g[k, m] * cols[j][m] for m in range(dim)) for k in range(dim)]
            for j in range(dim)]
    assert_same(s.nijenhuis_tensor(x).mat, want, s.exact)


def test_lie_derivative_F_matches_ad(structure):
    s = structure
    for c in range(s.dim):
        ad = s.alg.ad(np.array(unit(s.dim, c, s.exact), dtype=object if s.exact else float))
        want = -(ad.T @ s.f_matrix + s.f_matrix @ ad)
        assert_same(s.lie_derivative_F(unit(s.dim, c, s.exact)).matrix(), want, s.exact)


def test_connection_kernels_match_matrix_loops(structure):
    """DJ, curvature, D theta, nabla^0 and the codifferential of a 2-tensor,
    one Christoffel matrix at a time."""
    s = structure
    dim, J, g, ginv = s.dim, s.J, s.g, s.g_inv
    gamma = s.connection.gamma
    half = Fraction(1, 2) if s.exact else 0.5
    dj = [gamma[i] @ J - J @ gamma[i] for i in range(dim)]
    assert_same(s.connection.DJ, dj, s.exact)
    assert_same(connection.torsion_potential(s), [-half * (J @ d) for d in dj], s.exact)
    c = s.alg.structure_tensor
    for i in range(dim):
        for j in range(dim):
            want = sum(c[k, i, j] * gamma[k] for k in range(dim))
            want = want - (gamma[i] @ gamma[j] - gamma[j] @ gamma[i])
            assert_same(s.curvature.endos[i][j], want, s.exact)
    theta = s.lee_form().theta.vector()
    assert_same(s.Dtheta.mat, [-(theta @ gamma[i]) for i in range(dim)], s.exact)
    rng = np.random.default_rng(dim)
    phi = s.field.array([[_rational(rng) if s.exact else float(_rational(rng))
                          for _ in range(dim)] for _ in range(dim)])
    for m in (phi, s.f_matrix):
        want = sum(ginv[a, b] * (gamma[a].T @ m + m @ gamma[a])[b]
                   for a in range(dim) for b in range(dim))
        assert_same(s.codifferential(Tensor2(s.alg, m)).vector(), want, s.exact)


def ref_codifferential(s, coeffs, degree):
    """-sum_ab g^{ab} i_{e_b} D_{e_a} phi, with D_{e_a} the derivation along
    the Christoffel matrix Gamma_a: the reference loop for forms."""
    out = {}
    for a in range(s.dim):
        da = dict_forms.derive_along(coeffs, degree, s.dim, s.connection.gamma[a])
        for b in range(s.dim):
            if s.g_inv[a, b] != 0:
                for key, val in dict_forms.contract(da, unit(s.dim, b, s.exact)).items():
                    dict_forms.add_term(out, key, -s.g_inv[a, b] * val)
    return out


def test_codifferential_and_delta_theta_match_derivation_loop(structure):
    s = structure
    rng = np.random.default_rng(s.dim + 2)
    theta = s.lee_form().theta
    for form in (theta, KForm.from_vector(s.alg, _vec(s, rng)), s.F,
                 KForm.from_matrix(s.alg, _mat(s, rng))):
        got, want = s.codifferential(form).coeffs, ref_codifferential(s, form.coeffs, form.degree)
        keys = sorted(set(got) | set(want))
        assert_same([got.get(k, 0) for k in keys], [want.get(k, 0) for k in keys], s.exact)
    assert_same(s.delta_theta, ref_codifferential(s, theta.coeffs, 1).get((), 0), s.exact)


def ref_bochner_residual(structure, alpha):
    """The Bochner residual with its right-hand side summed basis vector by
    basis vector."""
    alpha = np.asarray(alpha)
    s = structure
    da = connection.covariant_one_form(s, alpha)
    parts = s.split_tensor(da)
    lhs = (s.codifferential(parts["j_plus"]) - s.codifferential(parts["j_minus"])).vector()
    lee = s.lee_form()
    rho = connection.star_ricci(s)
    djs = s.connection.DJ
    ginv = s.g_inv
    dim = s.dim
    sharp = s.sharp(alpha)
    rhs = s.field.zeros(dim)
    for x in range(dim):
        jx = s.J @ s.basis_vector(x)
        val = rho(sharp, jx) - (dim // 2 - 1) * (lee.JT @ da.mat @ jx)
        for a in range(dim):
            ja = s.J @ s.basis_vector(a)
            for b in range(dim):
                if ginv[a, b] == 0:
                    continue
                val = val - ginv[a, b] * (ja @ da.mat @ (djs[b] @ s.basis_vector(x)))
        rhs[x] = val
    diff = lhs - rhs
    scale = max(1.0, arith.max_abs(lhs), arith.max_abs(rhs))
    return arith.max_abs(diff) / scale


def test_bochner_residual_matches_loop():
    residuals = []
    for name in sorted(CASES):
        s = CASES[name]()
        rng = np.random.default_rng(s.dim)
        alpha = s.field.array([_rational(rng) if s.exact else float(_rational(rng))
                               for _ in range(s.dim)])
        got, want = identities.bochner_residual(s, alpha), ref_bochner_residual(s, alpha)
        if s.exact:
            assert got == want
        else:
            assert abs(got - want) <= FLOAT_RTOL
        residuals.append(got)
    # the identity needs an LCS structure: the generic members give nonzero residuals
    assert any(r > 0 for r in residuals)
    rng = np.random.default_rng(17)
    for dim in (4, 4, 4, 6, 6):
        s = random_hermitian_structure(rng, dim=dim)
        for _ in range(3):
            alpha = rng.standard_normal(dim)
            got, want = identities.bochner_residual(s, alpha), ref_bochner_residual(s, alpha)
            assert abs(got - want) <= FLOAT_RTOL


# -- computed once per report ----------------------------------------------------

def test_exact_report_computes_shared_results_once(monkeypatch):
    s = catalog_entry("A4_1")
    npairs = s.dim * (s.dim - 1) // 2
    counts = {"jacobi": 0, "automorphisms": 0, "first_kind": 0}
    einsum, nullspace = np.einsum, arith.nullspace
    check_first_kind = conditions.check_first_kind

    def counting_einsum(subscripts, *operands, **kwargs):
        counts["jacobi"] += subscripts == "mij,lmk->lijk"
        return einsum(subscripts, *operands, **kwargs)

    def counting_nullspace(a, *args, **kwargs):
        counts["automorphisms"] += np.asarray(a).shape == (npairs, s.dim)
        return nullspace(a, *args, **kwargs)

    def counting_check_first_kind(*args, **kwargs):
        counts["first_kind"] += 1
        return check_first_kind(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(arith, "nullspace", counting_nullspace)
    monkeypatch.setattr(conditions, "check_first_kind", counting_check_first_kind)
    report = run_report(s)
    assert report.condition_report["flags"]["adapted"]
    assert report.all_checks_pass
    assert counts == {"jacobi": 1, "automorphisms": 1, "first_kind": 1}


# -- Lee data against the two-stage solve of dF = theta ^ F --------------------

def ref_lee(s):
    """theta, V and solve_residual from solving dF = theta ^ F for theta:
    by elimination when it has a solution, otherwise by least squares in the
    metric norm on 3-forms (normal equations with the Lambda^3 Gram matrix)."""
    alg, dim, field = s.alg, s.dim, s.field
    three_keys = list(combinations(range(dim), 3))
    key_pos = {k: p for p, k in enumerate(three_keys)}
    nkeys = len(three_keys)
    theta_vec = field.zeros(dim)
    solve_residual = 0.0
    if nkeys:
        a = field.zeros(nkeys, dim)
        for i in range(dim):
            for key, val in dict_forms.wedge({(i,): field.scalar(1)}, s.F.coeffs).items():
                a[key_pos[key], i] = val
        b = field.zeros(nkeys)
        for key, val in dict_forms.d(alg, s.F.coeffs).items():
            b[key_pos[key]] = val
        theta_vec, res = arith.solve_least_squares(a, b, field)
        if arith.max_abs(res) > field.bound(arith.max_abs(b)):
            gram = field.zeros(nkeys, nkeys)
            for p in range(nkeys):
                for q in range(p, nkeys):
                    gram[p, q] = gram[q, p] = dict_forms.inner_product(
                        {three_keys[p]: field.scalar(1)}, {three_keys[q]: field.scalar(1)},
                        s.g_inv)
            theta_vec = arith.solve_square(a.T @ gram @ a, a.T @ gram @ b, field)
            res = b - a @ theta_vec
        solve_residual = arith.max_abs(res) / max(1.0, arith.max_abs(b))
    V = arith.solve_square(s.f_matrix.T, theta_vec, field)
    return theta_vec, V, float(solve_residual)


def _aa_lcs_member(n, a, lam):
    m = 2 * n - 2
    params = AlmostAbelianParams(n, a, (0,) * m, (0,) * m,
                                 tuple(tuple(lam if r == c else 0 for c in range(m))
                                       for r in range(m)))
    return build_almost_abelian(params)[1]


HALF = Fraction(1, 2)
MOVES = {
    "A4_1": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]],
    "A4_8": [[1, HALF, 0, 0], [0, 1, 0, 2], [0, -1, 1, 0], [1, 0, 0, 1]],
    "A3_4_plus_A1": [[2, 0, 1, 0], [0, 1, 0, -1], [HALF, 0, 1, 0], [0, 1, 1, 1]],
    "A3_6_plus_A1": [[1, 0, 0, HALF], [1, 1, 0, 0], [0, -2, 1, 0], [0, 0, 1, 1]],
}


def _moved_aa_dim6():
    p = np.eye(6, dtype=int).astype(object)
    p[0, 3], p[2, 5], p[4, 1] = HALF, -1, 2
    return _aa_member(3, 3).change_basis(p)


LEE_CASES = dict(CASES)
LEE_CASES.pop("A4_8_moved_float")
LEE_CASES.update({
    "aa_dim8_seed6": lambda: _aa_member(6, 4),
    "aa_dim6_lcs": lambda: _aa_lcs_member(3, Fraction(1, 3), Fraction(-3, 2)),
    "aa_dim8_lcs": lambda: _aa_lcs_member(4, -2, Fraction(2, 3)),
    "aa_dim6_moved": _moved_aa_dim6,
})
LEE_CASES.update({f"{name}_moved": (lambda name=name, p=p: catalog_entry(name).change_basis(
    np.array(p, dtype=object))) for name, p in MOVES.items()})


@pytest.mark.parametrize("case", sorted(LEE_CASES))
def test_lee_data_equals_two_stage_solve(case):
    s = LEE_CASES[case]()
    assert s.exact
    lee = s.lee_form()
    theta_vec, V, solve_residual = ref_lee(s)
    assert list(lee.theta.vector()) == list(theta_vec)
    assert list(lee.V) == list(V)
    assert lee.solve_residual == solve_residual


def test_lee_cases_cover_non_orthonormal_and_non_lcs_structures():
    structures = [make() for make in LEE_CASES.values()]
    assert any(arith.max_abs(s.g - s.field.eye(s.dim)) > 0 for s in structures)
    assert any(s.lee_form().solve_residual > 0 for s in structures)
    assert any(s.dim == 8 and s.lee_form().solve_residual == 0 for s in structures)


def test_lee_form_vanishes_in_dim_2():
    from lcak.hermitian import AlmostHermitianStructure, preset_j
    s = AlmostHermitianStructure(LieAlgebra(2, {(1, 2): {2: 1}}), preset_j("split", 2))
    lee = s.lee_form()
    assert lee.theta.is_zero() and lee.solve_residual == 0 and arith.max_abs(lee.V) == 0
    assert list(ref_lee(s)[0]) == [0, 0]


def test_float_lee_data_matches_two_stage_solve():
    from lcak.fuzzing import random_hermitian_structure
    rng = np.random.default_rng(11)
    structures = [random_hermitian_structure(rng, dim=4) for _ in range(6)]
    structures += [random_hermitian_structure(rng, dim=6) for _ in range(2)]
    structures += [_aa_member(seed, 3).as_float() for seed in (3, 4)]
    for s in structures:
        lee = s.lee_form()
        theta_vec, V, solve_residual = ref_lee(s)
        assert arith.max_abs(lee.theta.vector() - theta_vec) <= FLOAT_RTOL * max(
            1.0, arith.max_abs(theta_vec))
        assert arith.max_abs(lee.V - V) <= FLOAT_RTOL * max(1.0, arith.max_abs(V))
        assert abs(lee.solve_residual - solve_residual) <= FLOAT_RTOL


# -- products against plain @ chains ---------------------------------------------

def _vec(s, rng):
    return s.field.array([_rational(rng) if s.exact else float(_rational(rng))
                          for _ in range(s.dim)])


def _mat(s, rng):
    return np.array([_vec(s, rng) for _ in range(s.dim)])


def _form2(s, m):
    """The 2-form a library call builds from the matrix m."""
    return KForm.from_matrix(s.alg, m).matrix()


def test_hermitian_products_match_plain_chains(structure):
    s = structure
    J, g, ginv, exact = s.J, s.g, s.g_inv, s.exact
    half = Fraction(1, 2) if exact else 0.5
    rng = np.random.default_rng(s.dim + 1)
    x, m, b = _vec(s, rng), _mat(s, rng), _mat(s, rng)
    assert s.validation.compatibility_residual == float(arith.max_abs(J.T @ g @ J - g))
    assert_same(s.f_matrix, J.T @ g, exact)
    assert_same(s.j_one_form(x), -(J.T @ x), exact)
    assert_same(s.j_one_form(KForm.from_vector(s.alg, x)).vector(), -(J.T @ x), exact)
    pulled = J.T @ m @ J
    parts = s.split_tensor(Tensor2(s.alg, m))
    for key, want in (("j_plus", half * (m + pulled)), ("j_minus", half * (m - pulled)),
                      ("sym", half * (m + m.T)), ("antisym", half * (m - m.T))):
        assert_same(parts[key].mat, want, exact)
    assert_same(s.tensor_norm_sq(m), np.trace(ginv @ m @ ginv @ m.T), exact)
    assert_same(s.endo_inner(m, b), np.trace(ginv @ m.T @ g @ b), exact)
    assert_same(s.sharp(x), ginv @ x, exact)
    assert_same(s.flat(x).vector(), g @ x, exact)
    assert_same(Tensor2(s.alg, m)(x, b[0]), x @ m @ b[0], exact)
    ad = s.alg.ad(x)
    assert_same(s.lie_derivative_J(x), ad @ J - J @ ad, exact)
    assert_same(s.lie_derivative_g(x).mat, -(ad.T @ g + g @ ad), exact)
    assert_same(s.nijenhuis_form(x).matrix(),
                _form2(s, np.tensordot(g @ x, s._nijenhuis, 1)), exact)
    assert_same(s.lie_derivative_F(x).matrix(), _form2(s, np.tensordot(x, s._lie_F, 1)), exact)
    lee = s.lee_form()
    assert_same(lee.T, ginv @ lee.theta.vector(), exact)
    assert_same(lee.JT, J @ lee.T, exact)
    p = s.field.eye(s.dim) + np.diag([half] * (s.dim - 1), 1)
    moved = s.change_basis(p)
    assert_same(moved.J, arith.invert(p, s.field) @ J @ p, exact)
    assert_same(moved.g, p.T @ g @ p, exact)


def test_connection_and_identity_products_match_plain_chains(structure):
    s = structure
    dim, J, g, exact = s.dim, s.J, s.g, s.exact
    half = Fraction(1, 2) if exact else 0.5
    gamma, f, endos = s.connection.gamma, s.f_matrix, s.curvature.endos
    rho = connection.star_ricci(s).matrix()
    for i in range(dim):
        assert_same(connection.covariant_F(s, i).matrix(),
                    _form2(s, -(gamma[i].T @ f + f @ gamma[i])), exact)
        for j in range(dim):
            assert_same(s.curvature.components[i][j], endos[i][j].T @ g, exact)
    assert_same(rho, _form2(s, np.array([[-half * np.trace(J @ endos[i][j]) for j in range(dim)]
                                         for i in range(dim)])), exact)
    dtheta = s.lee_form().theta.d()
    m = dtheta.matrix()
    minus = half * (m - J.T @ m @ J)
    assert_same(identities.dtheta_anti_invariant_twist(s, dtheta).matrix(),
                _form2(s, -(J.T @ minus)), exact)
    sym = s.Dtheta.sym().mat
    assert_same(identities.sym_j_plus_twisted(s, s.Dtheta).matrix(),
                _form2(s, J.T @ (half * (sym + J.T @ sym @ J))), exact)
    dj, ginv = s.connection.DJ, s.g_inv
    phi = [[half * half * np.trace(ginv @ (J @ dj[i]).T @ g @ dj[j]) for j in range(dim)]
           for i in range(dim)]
    assert_same(connection.phi_form(s).matrix(), _form2(s, np.array(phi)), exact)


def test_condition_products_match_plain_chains(structure):
    s = structure
    g, exact = s.g, s.exact
    lee = s.lee_form()
    rep = conditions.classify_metric(s)
    want = max(arith.max_abs(np.einsum('k,kij->ij', g @ lee.T, s._nijenhuis)),
               arith.max_abs(np.einsum('k,kij->ij', g @ lee.JT, s._nijenhuis)))
    assert_same(rep.residuals["imN_span_T_JT"], want, exact)
    fk = conditions.check_first_kind(s, strict=False)
    if fk["first_kind"]:
        n_mat = np.array(conditions.automorphism_algebra(s).basis).T
        theta = lee.theta.vector()
        w = n_mat.T @ theta
        y = arith.solve_square(n_mat.T @ g @ n_mat, w, s.field)
        assert_same(fk["T_candidate"], n_mat @ (y * (s.field.scalar(1) / (w @ y))), exact)
    eq = conditions.verify_equivalences(s, strict=False, report=rep)
    bk = s.alg.bracket(lee.T, lee.JT)
    assert_same(eq["unimodular_bracket"]["g_T_JT_JT"], float(bk @ g @ lee.JT), exact)
    if eq["pluricanonical_consequences"]["applicable"]:
        dth = s.Dtheta.mat
        djth = connection.covariant_one_form(s, lee.jtheta).mat
        want = {"D_T_theta": lee.T @ dth, "D_JT_theta": lee.JT @ dth,
                "D_T_Jtheta": lee.T @ djth, "D_JT_Jtheta": lee.JT @ djth, "bracket_T_JT": bk}
        got = eq["pluricanonical_consequences"]["residuals"]
        assert got == {k: float(arith.max_abs(v)) for k, v in want.items()}


def ref_feasibility_subspace(s):
    """The constraint subspace with each J-invariance defect m - J^T m J
    written entry by entry."""
    dim = s.dim
    pairs = list(combinations(range(dim), 2))
    three = list(combinations(range(dim), 3))
    mat = s.field.zeros(len(pairs) + len(three), len(pairs))
    one = s.field.scalar(1)
    for q, (a, b) in enumerate(pairs):
        m = s.field.zeros(dim, dim)
        m[a, b], m[b, a] = one, -one
        diff = m - s.J.T @ m @ s.J
        for p, (i, j) in enumerate(pairs):
            mat[p, q] = diff[i, j]
        for key, val in dict_forms.d(s.alg, {(a, b): one}).items():
            mat[len(pairs) + three.index(key), q] = val
    return [{pairs[q]: x[q] for q in range(len(pairs)) if x[q] != 0}
            for x in arith.nullspace(mat, s.field)]


def ref_adapted_residuals(s):
    """The H residuals of check_adapted, one basis vector of H at a time."""
    if s.lee_form().norm_sq != 1:
        s = s.rescaled(s.lee_form().norm_sq)
    lee = s.lee_form()
    theta_vec, v_vec = lee.theta.vector(), lee.V
    t_vec = s.J @ v_vec
    eta = -1 * s.F.contract(t_vec)
    eta_vec = eta.vector()
    h_basis = arith.nullspace(np.array([theta_vec, eta_vec]), s.field)
    j_pres, orth = 0.0, 0.0
    for h in h_basis:
        jh = s.J @ h
        j_pres = max(j_pres, abs(float(jh @ theta_vec)), abs(float(jh @ eta_vec)))
        orth = max(orth, abs(float(h @ s.g @ t_vec)), abs(float(h @ s.g @ v_vec)))
    gram = ref_deta_gram(s, eta.d(), h_basis)
    return {"j_preserves_h": j_pres, "splitting_orthogonal": orth,
            "tv_orthonormal": max(abs(float(t_vec @ s.g @ t_vec - 1)),
                                  abs(float(v_vec @ s.g @ v_vec - 1)),
                                  abs(float(t_vec @ s.g @ v_vec))),
            "deta_metric_symmetric": arith.max_abs(gram - gram.T)}


def test_adapted_residuals_match_loops(structure):
    s = structure
    ad = conditions.check_adapted(s, strict=False)
    if not ad["residuals"]:
        return
    for key, want in ref_adapted_residuals(s).items():
        if s.exact:
            assert ad["residuals"][key] == want
        else:
            assert abs(ad["residuals"][key] - want) <= FLOAT_RTOL


def test_feasibility_subspace_and_certificate_products(structure):
    s = structure
    forms = conditions._feasibility_subspace(s)
    assert [w.coeffs for w in forms] == ref_feasibility_subspace(s)
    if s.exact:
        rng = np.random.default_rng(s.dim)
        for w in forms[:4]:
            u = _vec(s, rng)
            assert s.field.matmul(w.matrix(), s.J_num).tolist() == (w.matrix() @ s.J).tolist()
            got = s.field.matmul_num(u, s.field.matmul_num(w.matrix(), s.J_num), u)
            assert (got.num == 0) == (u @ (w.matrix() @ s.J) @ u == 0)


# -- the loops replaced by products, kept as references ---------------------------

def ref_deta_gram(s, d_eta, h_basis):
    k = len(h_basis)
    gram = s.field.zeros(k, k)
    for a in range(k):
        for b in range(k):
            gram[a, b] = d_eta(h_basis[a], s.J @ h_basis[b])
    return gram


def ref_nijenhuis_cyclic_residual(s):
    """The cyclic sum triple by triple, from N(e_i, e_j) with i < j."""
    dim, g = s.dim, s.g
    table = {}
    for i in range(dim):
        for j in range(dim):
            if i < j:
                table[(i, j)] = s._nijenhuis[:, i, j]
            elif i > j:
                table[(i, j)] = -1 * s._nijenhuis[:, j, i]
            else:
                table[(i, j)] = s.field.zeros(dim)
    worst = 0.0
    for i, j, k in combinations(range(dim), 3):
        val = (table[(i, j)] @ g @ s.basis_vector(k) + table[(j, k)] @ g @ s.basis_vector(i)
               + table[(k, i)] @ g @ s.basis_vector(j))
        worst = max(worst, abs(float(val)))
    return worst


def _loop_reference_cases():
    rng = np.random.default_rng(23)
    return ([make() for make in CASES.values()]
            + [random_hermitian_structure(rng, dim=d) for d in (4, 4, 6)]
            + [random_hermitian_structure(rng, dim=4, lcs_only=True)])


def test_deta_gram_and_nijenhuis_cyclic_match_loops():
    for s in _loop_reference_cases():
        rng = np.random.default_rng(s.dim)
        h = np.array([_vec(s, rng) for _ in range(s.dim - 2)])
        for d_eta in (s.F, s.lee_form().jtheta.d()):
            got, want = conditions._deta_gram(s, d_eta, h), ref_deta_gram(s, d_eta, list(h))
            if s.exact:
                assert got.tolist() == want.tolist()
            else:
                assert arith.max_abs(got - want) <= FLOAT_RTOL * max(1.0, arith.max_abs(want))
        got, want = identities.nijenhuis_cyclic_residual(s), ref_nijenhuis_cyclic_residual(s)
        if s.exact:
            assert got == want
        else:
            scale = max(1.0, arith.max_abs(s._nijenhuis) * arith.max_abs(s.g))
            assert abs(got - want) <= FLOAT_RTOL * scale


def test_float_contractions_keep_the_tensordot_bytes():
    rng = np.random.default_rng(29)
    for s in [random_hermitian_structure(rng, dim=d) for d in (4, 4, 6)]:
        x = rng.standard_normal(s.dim)
        want = KForm.from_matrix(s.alg, np.tensordot(s.g @ x, s._nijenhuis, 1))
        assert s.nijenhuis_form(x).coeffs == want.coeffs
        want = KForm.from_matrix(s.alg, np.tensordot(x, s._lie_F, 1))
        assert s.lie_derivative_F(x).coeffs == want.coeffs


# -- numerators of the read-only arrays, once per report --------------------------

@pytest.mark.parametrize("make", [lambda: catalog_entry("A4_1"), lambda: _aa_member(5, 4),
                                  lambda: catalog_entry("A4_8")], ids=["A4_1", "aa8", "A4_8"])
def test_exact_report_computes_numerators_once(monkeypatch, make):
    seen = []
    numerators = arith.Field.numerators

    def recording_numerators(self, a):
        seen.append(a)
        return numerators(self, a)

    monkeypatch.setattr(arith.Field, "numerators", recording_numerators)
    s = make()
    run_report(s, feasibility=True)
    counts = {name: sum(a is arr for a in seen) for name, arr in
              (("structure_tensor", s.alg.structure_tensor), ("J", s.J), ("g", s.g))}
    assert counts == {"structure_tensor": 1, "J": 1, "g": 1}
