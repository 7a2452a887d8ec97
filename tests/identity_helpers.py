"""Identity residuals and a fuzz sample that only the tests use: no library
code, demo or benchmark calls them."""
from lcak.almostabelian import build_almost_abelian
from lcak.catalogs import catalog_entry
from lcak.errors import UnsupportedDimension
from lcak.forms import KForm, hodge_star
from lcak.fuzzing import _well_conditioned, random_params_4d
from lcak.identities import _relative, dtheta_anti_invariant_twist, sym_j_plus_twisted


def lee_codifferential_residual(structure) -> float:
    """J delta^g F = (n - 1) theta (the adopted Lee normalization)."""
    s = structure
    lee = s.lee_form()
    delta_f = s.codifferential(s.F)
    lhs = s.j_one_form(delta_f)
    return _relative(lhs, (s.n - 1) * lee.theta)


def lie_derivative_nijenhuis_residual(structure) -> float:
    """L_{JT} J - J (L_T J) = 4 N(T, .) as endomorphisms."""
    s = structure
    lee = s.lee_form()
    lhs = s.lie_derivative_J(lee.JT) - s.J @ s.lie_derivative_J(lee.T)
    rhs = s.field.array([4 * s.nijenhuis(lee.T, s.basis_vector(j)) for j in range(s.dim)]).T
    return _relative(lhs, rhs)


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


def cartan_formula_residual(structure, form: KForm, x) -> float:
    """L_X = i_X d + d i_X on invariant forms."""
    lhs = form.lie_derivative(x)
    rhs = form.d().contract(x)
    if form.degree >= 1:
        rhs = rhs + form.contract(x).d()
    return _relative(lhs, rhs)


def unimodular_lcs_orthogonal_sample(rng):
    """Unimodular LCS dim-4 sample with T orthogonal to im N, stratified so
    both pluricanonical and non-pluricanonical members appear."""
    kind = "pluricanonical" if rng.random() < 0.5 else "orth_not_pluri"
    params = random_params_4d(rng, kind)
    s = build_almost_abelian(params)[1].as_float()
    if rng.random() < 0.5:
        s = s.change_basis(_well_conditioned(rng, 4))
    return s


def conjugated_lcs_4d(rng):
    """A float LCS catalog entry in a random well-conditioned basis."""
    name = ("A4_1", "A4_8", "A4_1_aa", "A3_4_plus_A1", "A3_6_plus_A1")[
        int(rng.integers(0, 5))]
    s = catalog_entry(name).as_float()
    return s.change_basis(_well_conditioned(rng, 4))
