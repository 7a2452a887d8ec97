from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import dict_forms
from dict_forms import merge_sign
from lcak import identities
from lcak.algebra import LieAlgebra, abelian_algebra
from lcak.almostabelian import AlmostAbelianParams, build_almost_abelian
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.errors import DimensionMismatch, IndexOutOfRange
from lcak.forms import KForm, derive_along, form_inner_product, hodge_star
from lcak.fuzzing import random_compatible_pair, random_hermitian_structure
from lcak.hermitian import AlmostHermitianStructure

FLOAT_RTOL = 1e-12


def test_merge_sign():
    assert merge_sign((0, 1), (2, 3)) == (1, (0, 1, 2, 3))
    assert merge_sign((1, 3), (0, 2)) == (-1, (0, 1, 2, 3))
    assert merge_sign((0, 1), (1, 2))[0] == 0


def test_wedge_theta_f_a41(a41):
    theta = a41.lee_form().theta
    assert theta == KForm.from_terms(a41.alg, {(3,): -1})
    assert theta.wedge(a41.F) == KForm.from_terms(a41.alg, {(2, 3, 4): 1})


def test_wedge_square_of_one_form_vanishes(a41):
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = KForm.from_vector(a41.alg, np.array(
            [Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object))
        assert alpha.wedge(alpha).is_zero()


def test_wedge_theta_f_a48(a48):
    theta = a48.lee_form().theta
    assert theta.wedge(a48.F) == KForm.from_terms(a48.alg, {(2, 3, 4): -1})


def test_wedge_graded_commutativity():
    alg = abelian_algebra(6)
    rng = np.random.default_rng(1)

    def rand_form(k):
        coeffs = {}
        from itertools import combinations
        for key in combinations(range(6), k):
            v = int(rng.integers(-2, 3))
            if v:
                coeffs[key] = Fraction(v)
        return KForm(alg, k, coeffs)

    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        a, b = rand_form(ka), rand_form(kb)
        sign = (-1) ** (ka * kb)
        assert a.wedge(b) == sign * b.wedge(a)


def test_wedge_rejects_mismatched_algebras(a41):
    other = abelian_algebra(6)
    with pytest.raises(DimensionMismatch):
        a41.F.wedge(KForm.basis_one_form(other, 0))


def test_contraction_characteristic_field(a41, a48):
    for s, vexp in [(a41, [-1, 0, 0, 0]), (a48, [-1, 0, 0, 0])]:
        lee = s.lee_form()
        v = np.array([Fraction(x) for x in vexp], dtype=object)
        assert s.F.contract(v) == lee.theta
        assert all(a == b for a, b in zip(lee.V, v))


def test_contraction_linearity_and_nilpotency(a41):
    rng = np.random.default_rng(2)
    x = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
    f = Fraction(3, 7)
    assert (f * a41.F).contract(x) == f * a41.F.contract(x)
    three = a41.F.wedge(a41.lee_form().theta)
    assert three.contract(x).contract(x).is_zero()


def test_d_fundamental_form_a41(a41):
    assert a41.F.d() == KForm.from_terms(a41.alg, {(2, 3, 4): 1})


def test_d_fundamental_form_a48(a48):
    assert a48.F.d() == KForm.from_terms(a48.alg, {(2, 3, 4): -1})


def test_d_basis_one_form_a41(a41):
    # d e^1 = -e^{24} since de^k(e_i, e_j) = -c^k_{ij}
    e1 = KForm.basis_one_form(a41.alg, 0)
    assert e1.d() == KForm.from_terms(a41.alg, {(2, 4): -1})


def test_d_abelian_is_zero():
    alg = abelian_algebra(4)
    rng = np.random.default_rng(3)
    from itertools import combinations
    for k in (1, 2, 3):
        coeffs = {key: Fraction(int(rng.integers(-2, 3)))
                  for key in combinations(range(4), k)}
        assert KForm(alg, k, coeffs).d().is_zero()


def test_d_squared_zero_and_leibniz(rng):
    for _ in range(6):
        s = random_hermitian_structure(rng, dim=4)
        alg = s.alg
        from itertools import combinations
        def rand_form(k):
            return KForm(alg, k, {key: float(rng.standard_normal())
                                  for key in combinations(range(4), k)})
        for k in (1, 2):
            a = rand_form(k)
            assert a.d().d().max_abs() <= 1e-9 * max(1.0, a.max_abs())
        a, b = rand_form(1), rand_form(2)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) - a.wedge(b.d())
        assert (lhs - rhs).max_abs() <= 1e-9 * max(1.0, lhs.max_abs())


def test_cartan_formula_matches_direct_lie_derivative(rng):
    for _ in range(5):
        s = random_hermitian_structure(rng, dim=4)
        x = rng.standard_normal(4)
        for form in (s.F, s.lee_form().theta, s.F.wedge(s.lee_form().theta)):
            assert identities.cartan_formula_residual(s, form, x) <= 1e-9


def test_inner_product_orthonormal(a41):
    e13 = KForm.from_terms(a41.alg, {(1, 3): 1})
    assert form_inner_product(e13, e13, a41.g_inv) == 1
    assert form_inner_product(e13, a41.F, a41.g_inv) == 1


def test_inner_product_dj_theta_with_f(a41):
    # <dJtheta, F> = -1 = -(n-1)|theta|^2 - delta theta with n = 2
    djt = a41.lee_form().jtheta.d()
    assert form_inner_product(djt, a41.F, a41.g_inv) == -1


def test_hodge_star_f_self_dual(a41):
    assert hodge_star(a41.F, a41.g_inv, a41.volume) == a41.F


def test_hodge_star_squares(rng):
    for _ in range(4):
        s = random_hermitian_structure(rng, dim=4)
        from itertools import combinations
        for k in (1, 2, 3):
            a = KForm(s.alg, k, {key: float(rng.standard_normal())
                                 for key in combinations(range(4), k)})
            twice = hodge_star(hodge_star(a, s.g_inv, s.volume), s.g_inv, s.volume)
            sign = (-1) ** (k * (4 - k))
            assert (twice - sign * a).max_abs() <= 1e-8 * max(1.0, a.max_abs())


def test_hodge_defining_property(rng):
    s = random_hermitian_structure(rng, dim=4)
    from itertools import combinations
    keys = list(combinations(range(4), 2))
    for _ in range(5):
        a = KForm(s.alg, 2, {k: float(rng.standard_normal()) for k in keys})
        b = KForm(s.alg, 2, {k: float(rng.standard_normal()) for k in keys})
        lhs = a.wedge(hodge_star(b, s.g_inv, s.volume))
        rhs = form_inner_product(a, b, s.g_inv) * s.volume
        assert (lhs - rhs).max_abs() <= 1e-8 * max(1.0, lhs.max_abs())


def test_volume_positive_orientation_a41(a41):
    # F^2/2 = -e^{1234}: the orientation that makes F^n/n! positive
    assert a41.volume == KForm.from_terms(a41.alg, {(1, 2, 3, 4): -1})
    assert form_inner_product(a41.volume, a41.volume, a41.g_inv) == 1


def test_j_invariant_wedge_formula_exact(a41):
    # phi = F, psi = F reproduces the stated coefficient identity exactly
    assert identities.j_invariant_wedge_residual(a41, a41.F, a41.F) == 0
    phi = KForm.from_terms(a41.alg, {(1, 3): 1, (2, 4): -1})  # J-invariant
    psi = KForm.from_terms(a41.alg, {(1, 3): 1})
    assert identities.j_invariant_wedge_residual(a41, phi, psi) == 0


def test_j_invariant_wedge_formula_fuzz(rng):
    from lcak.fuzzing import _random_j_invariant_pair
    for _ in range(10):
        s = random_hermitian_structure(rng, dim=4 if rng.random() < 0.7 else 6)
        phi, psi = _random_j_invariant_pair(s, rng)
        assert identities.j_invariant_wedge_residual(s, phi, psi) <= 1e-9


def test_evaluation_is_antisymmetric(a41):
    f = a41.F
    rng = np.random.default_rng(5)
    x = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
    y = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
    assert f(x, y) == -f(y, x)
    assert f(x, x) == 0


# -- the constructor normalizes its keys -------------------------------------------

def test_constructor_sorts_keys_with_their_permutation_sign(a41):
    alg = a41.alg
    total = KForm(alg, 2, {(1, 0): 1}) + KForm(alg, 2, {(0, 1): 1})
    assert total.is_zero() and repr(total) == "0"
    assert KForm(alg, 3, {(2, 0, 1): 1}) == KForm.from_terms(alg, {(1, 2, 3): 1})
    assert KForm.from_terms(alg, {(2, 1): 1, (1, 2): 3}) == KForm.from_terms(alg, {(1, 2): 2})


def test_constructor_drops_repeated_indices(a41):
    assert KForm(a41.alg, 2, {(1, 1): 1}).is_zero()
    assert repr(KForm.from_terms(a41.alg, {(2, 2): 1})) == "0"


def test_constructor_rejects_out_of_range_indices(a41):
    for key in ((0, 7), (-1, 2)):
        with pytest.raises(IndexOutOfRange):
            KForm(a41.alg, 2, {key: 1})
    with pytest.raises(IndexOutOfRange):
        KForm.from_terms(a41.alg, {(0, 1): 1})


# -- the dense kernel against the dict reference (tests/dict_forms.py) -------------

def _rational(rng):
    return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))


def _aa_algebra(dim, seed):
    """A random exact almost abelian algebra."""
    rng = np.random.default_rng(seed)
    m = dim - 2
    params = AlmostAbelianParams(
        dim // 2, _rational(rng), tuple(_rational(rng) for _ in range(m)),
        tuple(_rational(rng) for _ in range(m)),
        tuple(tuple(_rational(rng) for _ in range(m)) for _ in range(m)))
    return build_almost_abelian(params)[0]


class RefCase:
    """An algebra of one dimension and mode, with random draws in its field."""

    def __init__(self, dim, exact):
        self.alg = _aa_algebra(dim, dim) if exact else _aa_algebra(dim, dim).as_float()
        self.dim, self.exact = dim, exact
        self.rng = np.random.default_rng(10 * dim + exact)

    def scalar(self):
        return _rational(self.rng) if self.exact else float(self.rng.standard_normal())

    def vector(self):
        """Entries in the field, about a third of them zero."""
        return self.alg.field.array([self.scalar() if self.rng.random() < 0.7 else 0
                                     for _ in range(self.dim)])

    def matrix(self):
        return np.array([self.vector() for _ in range(self.dim)])

    def form(self, k, terms=None):
        """A random k-form on about 60% of the basis, or on ``terms`` random basis forms."""
        keys = list(combinations(range(self.dim), k))
        if terms is not None:
            keys = [keys[p] for p in self.rng.permutation(len(keys))[:terms]]
        return KForm(self.alg, k, {key: self.scalar() for key in keys
                                   if terms is not None or self.rng.random() < 0.6})

    def assert_agrees(self, got, want):
        """Exact equality, or float agreement relative to the reference's size."""
        if isinstance(got, KForm):
            got = got.coeffs
            keys = sorted(set(got) | set(want))
            got, want = (np.array([c.get(key, 0) for key in keys]) for c in (got, want))
        if self.exact:
            assert np.all(np.asarray(got == want))
        else:
            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert float(np.max(np.abs(np.subtract(got, want)), initial=0.0)) <= FLOAT_RTOL * scale


@pytest.fixture(params=[(dim, exact) for dim in (4, 6, 8) for exact in (True, False)],
                ids=lambda p: f"dim{p[0]}-{'exact' if p[1] else 'float'}")
def case(request):
    return RefCase(*request.param)


def test_wedge_matches_dict_reference(case):
    for k in range(case.dim + 1):
        for l in range(case.dim + 1 - k):
            a, b = case.form(k), case.form(l)
            case.assert_agrees(a.wedge(b), dict_forms.wedge(a.coeffs, b.coeffs))


def test_contraction_and_evaluation_match_dict_reference(case):
    for k in range(case.dim + 1):
        a = case.form(k)
        vectors = [case.vector() for _ in range(k)]
        case.assert_agrees(a(*vectors), dict_forms.evaluate(a.coeffs, k, vectors))
        if k:
            case.assert_agrees(a.contract(vectors[0]), dict_forms.contract(a.coeffs, vectors[0]))


def test_d_matches_dict_reference(case):
    for k in range(case.dim + 1):
        a = case.form(k)
        case.assert_agrees(a.d(), dict_forms.d(case.alg, a.coeffs))


def test_derive_along_matches_dict_reference(case):
    m = case.matrix()
    for k in range(case.dim + 1):
        a = case.form(k)
        case.assert_agrees(derive_along(a, m), dict_forms.derive_along(a.coeffs, k, case.dim, m))


def test_inner_product_and_hodge_star_match_dict_reference(case):
    g = case.matrix()
    g_inv = g + g.T
    vol = case.scalar() or 1
    volume = KForm(case.alg, case.dim, {tuple(range(case.dim)): vol})
    for k in range(case.dim + 1):
        # the reference expands one minor per pair of terms: keep the forms short
        a, b = case.form(k, terms=4), case.form(k, terms=4)
        case.assert_agrees(form_inner_product(a, b, g_inv),
                           dict_forms.inner_product(a.coeffs, b.coeffs, g_inv))
        case.assert_agrees(hodge_star(a, g_inv, volume),
                           dict_forms.hodge_star(a.coeffs, k, case.dim, g_inv, vol))


# -- the cached matrices of d -------------------------------------------------------

D_ALGEBRAS = {name: (lambda name=name: catalog_entry(name).alg) for name in CATALOG_NAMES}
D_ALGEBRAS.update({f"aa_dim{dim}_seed{seed}": (lambda dim=dim, seed=seed: _aa_algebra(dim, seed))
                   for dim in (6, 8) for seed in (1, 2, 3)})


@pytest.mark.parametrize("name", sorted(D_ALGEBRAS))
def test_d_matrices_square_to_zero(name):
    alg = D_ALGEBRAS[name]()
    assert alg.exact
    for k in range(alg.dim):
        assert not np.any(alg.d_matrix(k + 1).num @ alg.d_matrix(k).num)


@pytest.mark.parametrize("name", sorted(D_ALGEBRAS))
def test_d_on_one_forms_is_minus_c_on_the_pairs(name):
    alg = D_ALGEBRAS[name]()
    rows, cols = np.triu_indices(alg.dim, 1)
    d1 = alg.field.fractions(*alg.d_matrix(1))
    assert np.all(d1 == -alg.structure_tensor[:, rows, cols].T)
