import io
import json
from fractions import Fraction

import numpy as np
import pytest

from lcak import arith, conditions
from lcak.algebra import LieAlgebra, abelian_algebra
from lcak.almostabelian import AlmostAbelianParams
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.conditions import (automorphism_algebra, check_adapted, check_first_kind,
                             check_lcs, classify_metric, symplectic_feasibility,
                             verify_equivalences)
from lcak.forms import KForm
from lcak.fuzzing import build_almost_abelian, random_params_4d
from lcak.hermitian import AlmostHermitianStructure, preset_j

A41_BRACKETS = {(2, 4): {1: 1}, (3, 4): {2: 1}}
SPLIT_J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_check_lcs_a41(a41):
    out = check_lcs(a41)
    assert out["is_lcs"]
    assert out["theta"] == KForm.from_terms(a41.alg, {(3,): -1})
    assert out["dtheta_residual"] == 0 and out["lee_residual"] == 0


def test_check_lcs_abelian(abelian_kahler):
    out = check_lcs(abelian_kahler)
    assert out["is_lcs"] and out["theta"].is_zero()


def test_check_lcs_incompatible_metric_flags_false():
    # g = diag(1,1,1,4) is not J-invariant for the split J: the (J, g) pair
    # fails compatibility, so the LCS flag must come back false with the
    # defect reported.
    alg = LieAlgebra(4, A41_BRACKETS)
    g = np.diag([1, 1, 1, 4]).astype(object)
    s = AlmostHermitianStructure(alg, SPLIT_J, g, validate=False)
    out = check_lcs(s)
    assert not out["structure_ok"]
    assert not out["is_lcs"]
    assert out["compatibility_residual"] == 3


def test_check_lcs_closed_theta_required():
    # split-adjacent J on A4_1 gives dF = theta ^ F with d theta != 0
    alg = LieAlgebra(4, A41_BRACKETS)
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    s = AlmostHermitianStructure(alg, j)
    out = check_lcs(s)
    assert out["lee_residual"] == 0      # dim 4: exact solve always
    assert out["dtheta_residual"] > 0    # but the Lee form is not closed
    assert not out["is_lcs"]


def test_automorphism_algebra_a41(a41):
    aut = automorphism_algebra(a41)
    assert aut.kind == "first"
    assert aut.dimension == 2
    theta = a41.lee_form().theta.vector()
    assert any(x @ theta != 0 for x in aut.basis)


def test_automorphisms_preserve_theta(a41):
    # L_X F = 0 automatically implies L_X theta = 0
    for x in automorphism_algebra(a41).basis:
        lt = a41.lee_form().theta.lie_derivative(x)
        assert lt.is_zero()


def test_check_first_kind_catalog(a41, a48):
    for s, dim in ((a41, 2), (a48, 3)):
        assert check_first_kind(s) == {"first_kind": True, "kind": "first",
                                        "automorphism_dim": dim}


def test_check_first_kind_abelian_is_second_kind(abelian_kahler):
    out = check_first_kind(abelian_kahler)
    assert not out["first_kind"]
    assert out["kind"] == "second"


def test_check_first_kind_is_false_off_lcs():
    # the Lee form of this J is not closed, so no automorphism makes it first kind
    alg = LieAlgebra(4, A41_BRACKETS)
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    s = AlmostHermitianStructure(alg, j)
    assert not check_lcs(s)["is_lcs"]
    assert not check_first_kind(s)["first_kind"]
    assert check_adapted(s) == {"first_kind": False, "adapted": False, "residuals": {},
                                "lee_norm_sq": s.lee_form().norm_sq,
                                "scale_normalized": False}


def test_check_adapted_a41(a41):
    out = check_adapted(a41)
    assert out["adapted"]
    assert all(float(v) == 0 for v in out["residuals"].values())


def test_check_adapted_a48(a48):
    assert check_adapted(a48)["adapted"]


def test_adapted_h_splitting_a41(a41):
    # H = ker theta /\ ker eta = span(e2, e4); d eta(., J.) restricted to H
    # equals the identity in that basis
    lee = a41.lee_form()
    eta = lee.eta
    assert eta == KForm.from_terms(a41.alg, {(1,): -1})
    d_eta = eta.d()
    e2, e4 = a41.basis_vector(1), a41.basis_vector(3)
    assert d_eta(e2, a41.J @ e2) == 1
    assert d_eta(e4, a41.J @ e4) == 1
    assert d_eta(e2, a41.J @ e4) == 0


def test_flipped_j_breaks_characteristic_identity(a41):
    # against the *fixed* LCS structure (F, theta) of A4_1, the flipped J
    # sends the characteristic field V to -T instead of T
    lee = a41.lee_form()
    j_flipped = -1 * a41.J
    assert all(a == -b for a, b in zip(j_flipped @ lee.V, lee.T))
    # and F(., j_flipped .) is negative definite, so the flipped J is not
    # compatible with F at all
    metric = a41.f_matrix @ j_flipped
    assert not arith.is_positive_definite(metric, arith.Field(True))
    assert arith.is_positive_definite(-1 * metric, arith.Field(True))


def test_check_adapted_is_false_off_the_first_kind(abelian_kahler):
    out = check_adapted(abelian_kahler)
    assert not out["first_kind"] and not out["adapted"] and out["residuals"] == {}


def test_check_adapted_scale_normalizes(a41):
    scaled = a41.rescaled(4)
    out = check_adapted(scaled)
    assert out["adapted"] and out["scale_normalized"]
    assert out["lee_norm_sq"] == Fraction(1, 4)


def test_classify_metric_a41(a41):
    rep = classify_metric(a41)
    assert rep.flags["pluricanonical"]
    assert not rep.flags["vaisman"]
    assert rep.flags["is_gauduchon"]
    assert rep.flags["first_kind"] and rep.flags["adapted"]
    assert not rep.flags["anti_pluricanonical"]
    assert not rep.flags["lee_field_holomorphic"]
    assert rep.warnings == []
    assert rep.metadata["arithmetic_mode"] == "exact"


def test_classify_metric_a48(a48):
    rep = classify_metric(a48)
    assert rep.flags["pluricanonical"] and not rep.flags["vaisman"]
    assert rep.warnings == []


def test_classify_metric_abelian(abelian_kahler):
    rep = classify_metric(abelian_kahler)
    assert rep.flags["vaisman"] and rep.flags["is_gcs"]
    assert rep.flags["pluricanonical"] and rep.flags["anti_pluricanonical"]
    assert not rep.flags["first_kind"]
    assert rep.kind == "second"
    assert rep.warnings == []


def test_classify_metric_scale_invariance(a41):
    rep = classify_metric(a41.rescaled(9))
    assert rep.flags["pluricanonical"] and rep.flags["adapted"]
    assert rep.warnings == []


def test_verify_equivalences_a41(a41):
    eq = verify_equivalences(a41)
    assert eq["all_consistent"]
    assert eq["unimodular_bracket"]["applicable"]
    assert eq["unimodular_bracket"]["g_T_JT_JT"] == 0
    # only the equivalences: the one-way statements are IMPLIED rows, and the
    # dim-4 integrand is an identity checked in test_connection and the fuzzer
    assert set(eq) == {*EQUIVALENCE_SIDES, "all_consistent"}
    lee = a41.lee_form()
    assert all(res(a41, lee) == 0 for hyp, _, _, res in conditions.IMPLIED if hyp == PLURI)


def test_verify_equivalences_abelian(abelian_kahler):
    eq = verify_equivalences(abelian_kahler)
    assert eq["all_consistent"]
    assert not eq["first_kind_adapted"]["applicable"]  # theta = 0


def test_verify_equivalences_non_lcs_not_applicable():
    alg = LieAlgebra(4, A41_BRACKETS)
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    s = AlmostHermitianStructure(alg, j)
    eq = verify_equivalences(s)
    assert not classify_metric(s).flags["is_lcs"]
    for key in ("first_kind_adapted", "unimodular_bracket", "holomorphic_lee_field"):
        assert eq[key]["applicable"] is False, key
    assert eq["all_consistent"] is True


# The hypotheses of the paper's statements, written out apart from
# conditions.IMPLIED and conditions.EQUIVALENT: a row whose flags are narrowed,
# broadened or wrong fails the gating tests below.
PLURI, ORTH = ("pluricanonical",), ("is_lcs", "T_orthogonal_to_imN")
UNI_PLURI = ("unimodular", "pluricanonical")
IMPLIED_HYPOTHESES = {
    "Gauduchon": PLURI,
    "L_T F = 0": PLURI,
    "dJtheta = -|theta|^2 F + theta^Jtheta": PLURI,
    "D_T theta = 0": PLURI,
    "D_JT theta = 0": PLURI,
    "D_T Jtheta = 0": PLURI,
    "D_JT Jtheta = 0": PLURI,
    "[T,JT] = 0": PLURI,
    "dJtheta J-invariant": ORTH,
    "N(T) symmetric": ORTH,
    "D_T J = 0": ORTH,
    "D_JT J = 0": ORTH,
    "rho*(T,JT) = 0": UNI_PLURI,
    "|(Dtheta)^{J,+}|^2 + 2<D_JT theta, Jtheta> = 0": UNI_PLURI,
}
# key: (lhs key, rhs key, (applicable, lhs, rhs) from the flags f and the
# bracket test bv)
EQUIVALENCE_SIDES = {
    "first_kind_adapted": ("lhs_first_kind_and_adapted", "rhs_pluricanonical",
                           lambda f, bv: (f["is_lcs"] and not f["is_gcs"],
                                          f["first_kind"] and f["adapted"],
                                          f["pluricanonical"])),
    "unimodular_bracket": ("lhs_pluricanonical", "rhs_bracket_vanishes",
                           lambda f, bv: (f["is_lcs"] and f["unimodular"]
                                          and f["T_orthogonal_to_imN"],
                                          f["pluricanonical"], bv)),
    "holomorphic_lee_field": ("lhs_anti_pluricanonical", "rhs_L_T_J_zero",
                              lambda f, bv: (f["is_lcs"], f["anti_pluricanonical"],
                                             f["lee_field_holomorphic"])),
}
# exact dim-4 members (a, b, v, A) that separate the hypothesis flags, with
# which of SEPARATED_FLAGS each one has
SEPARATED_FLAGS = ("is_lcs", "T_orthogonal_to_imN", "unimodular", "pluricanonical", "is_gcs")
SEPARATING_PARAMS = {
    (0, (0, 0), (1, 0), ((1, 1), (-1, 1))): {"T_orthogonal_to_imN"},
    (0, (0, 0), (1, -1), ((0, 1), (0, 0))): {"unimodular"},
    (0, (0, 1), (-1, 1), ((1, 1), (-1, -1))): {"is_lcs", "unimodular"},
    (-1, (-1, 0), (1, 0), ((0, 0), (0, 0))): {"is_lcs", "T_orthogonal_to_imN",
                                              "pluricanonical"},
    (1, (0, 0), (0, 0), ((0, 0), (-1, -1))): {"is_lcs", "T_orthogonal_to_imN",
                                              "unimodular"},
    (1, (0, -1), (0, 0), ((0, 1), (1, 0))): {"is_lcs", "T_orthogonal_to_imN",
                                             "pluricanonical", "is_gcs"},
}
NON_PLURI_KINDS = ("general", "lee_closed", "orth_not_pluri")


def _gating_structures():
    """(label, structure): the catalog, the separating members and float
    samples of every almost abelian fuzz kind."""
    out = [(name, catalog_entry(name)) for name in CATALOG_NAMES]
    out += [(f"params{p}", build_almost_abelian(AlmostAbelianParams(2, *p))[1])
            for p in SEPARATING_PARAMS]
    rng = np.random.default_rng(18)
    for kind in (*NON_PLURI_KINDS, "pluricanonical"):
        out += [(kind, build_almost_abelian(random_params_4d(rng, kind))[1].as_float())
                for _ in range(3)]
    return out


def test_separating_members_have_their_flags():
    for p, want in SEPARATING_PARAMS.items():
        flags = classify_metric(build_almost_abelian(AlmostAbelianParams(2, *p))[1]).flags
        assert {k for k in SEPARATED_FLAGS if flags[k]} == want, p


def test_implied_rows_evaluated_exactly_where_hypotheses_hold(monkeypatch):
    assert [row[2] for row in conditions.IMPLIED] == list(IMPLIED_HYPOTHESES)
    seen = []

    def recording(conclusion, residual):
        def recorded(s, lee):
            seen.append(conclusion)
            return residual(s, lee)
        return recorded

    monkeypatch.setattr(conditions, "IMPLIED", tuple(
        (hyp, text, concl, recording(concl, res))
        for hyp, text, concl, res in conditions.IMPLIED))
    for label, s in _gating_structures():
        seen.clear()
        flags = classify_metric(s).flags
        want = [c for c, hyp in IMPLIED_HYPOTHESES.items() if all(flags[k] for k in hyp)]
        assert seen == want, label
        if label in CATALOG_NAMES:
            assert seen == list(IMPLIED_HYPOTHESES), label
        if label in NON_PLURI_KINDS:
            assert not any("pluricanonical" in IMPLIED_HYPOTHESES[c] for c in seen), label


def test_equivalent_rows_applicable_exactly_where_flags_hold():
    assert [row[0] for row in conditions.EQUIVALENT] == list(EQUIVALENCE_SIDES)
    for label, s in _gating_structures():
        rep = classify_metric(s)
        eq = verify_equivalences(s, report=rep)
        lee = s.lee_form()
        bk = s.alg.bracket(lee.T, lee.JT)
        bv = abs(float(bk @ s.g @ lee.JT)) <= s.field.bound(
            arith.max_abs(bk) * max(1.0, arith.max_abs(lee.JT)))
        for key, (lhs_key, rhs_key, sides) in EQUIVALENCE_SIDES.items():
            applicable, lhs, rhs = (bool(x) for x in sides(rep.flags, bv))
            entry = eq[key]
            assert (entry["applicable"], entry[lhs_key], entry[rhs_key]) == \
                (applicable, lhs, rhs), (label, key)
            assert entry["consistent"] == (not applicable or lhs == rhs), (label, key)
        assert eq["all_consistent"], label


def test_equivalences_fuzz_all_families(rng):
    for trial in range(24):
        kind = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")[trial % 4]
        s = build_almost_abelian(random_params_4d(rng, kind))[1].as_float()
        rep = classify_metric(s)
        eq = verify_equivalences(s, report=rep)
        assert eq["all_consistent"], (kind, eq)
        assert rep.warnings == [], (kind, rep.warnings)


def test_feasibility_a41_infeasible(a41):
    out = symplectic_feasibility(a41)
    assert out["status"] == "infeasible"
    assert out["optimum"] <= a41.tol
    assert out["certificate"] is not None


def test_feasibility_a48_infeasible(a48):
    out = symplectic_feasibility(a48)
    assert out["status"] == "infeasible"
    assert out["certificate"] is not None


def test_feasibility_abelian_witness_is_f(abelian_kahler):
    out = symplectic_feasibility(abelian_kahler)
    assert out["status"] == "feasible"
    assert out["witness"] == abelian_kahler.F


def test_feasibility_witness_properties(rng):
    # any returned witness must satisfy the constraints and be genuinely
    # compatible: d omega^{n-1} = 0 exactly and omega(., J.) positive definite
    s = catalog_entry("abelian_kahler")
    out = symplectic_feasibility(s)
    w = out["witness"]
    assert w.d().is_zero()
    m = w.matrix() @ s.J
    assert arith.is_positive_definite(Fraction(1, 2) * (m + m.T), arith.Field(True))


def assert_exactly_isotropic(s, certificate):
    u = np.array([Fraction(c) for c in certificate], dtype=object)
    assert any(c != 0 for c in u)
    for w in conditions._feasibility_subspace(s):
        assert u @ w.matrix() @ (s.J @ u) == 0


def test_feasibility_certificate_is_exact_isotropic(a41):
    assert_exactly_isotropic(a41, symplectic_feasibility(a41)["certificate"])


# -- n = 3: the closed J-invariant forms of dim-6 algebras -----------------------

def _aa_6d(a, lam):
    """The almost abelian member with A = lam * id and b = v = 0, which is LCS."""
    A = [[lam if i == j else 0 for j in range(4)] for i in range(4)]
    return build_almost_abelian(AlmostAbelianParams(3, a, (0,) * 4, (0,) * 4, A))[1]


def test_feasibility_dim6_abelian_witness_is_f():
    s = AlmostHermitianStructure(abelian_algebra(6), preset_j("split", 6))
    out = symplectic_feasibility(s)
    assert out["search_space"] == "closed_j_invariant"
    assert out["status"] == "feasible"
    assert out["witness"] == KForm.from_terms(s.alg, {(1, 4): 1, (2, 5): 1, (3, 6): 1})


@pytest.mark.parametrize("make", [
    lambda: AlmostHermitianStructure(
        LieAlgebra(6, {(2, 5): {4: -1}, (3, 6): {4: -1}}), preset_j("split", 6)),
    lambda: _aa_6d(0, 1),
    lambda: _aa_6d(-1, Fraction(1, 2)),
], ids=["R+h5", "aa_a0_lam1", "aa_a-1_lam1/2"])
def test_feasibility_dim6_infeasible_with_an_exact_certificate(make):
    s = make()
    assert s.dim == 6 and check_lcs(s)["is_lcs"]
    out = symplectic_feasibility(s)
    assert out["status"] == "infeasible"
    assert_exactly_isotropic(s, out["certificate"])


# -- the batched search against a per-restart loop ------------------------------

def ref_ascent(G, seed, restarts, iterations):
    """The ascent one restart at a time, one matrix per eigh call."""
    g_mats = list(G)
    k = len(g_mats)
    rng = np.random.default_rng(seed)
    best_val, best_x = -np.inf, None
    for _ in range(restarts):
        x = rng.standard_normal(k)
        x /= np.linalg.norm(x)
        step = 0.5
        for it in range(iterations):
            m = sum(x[a] * g_mats[a] for a in range(k))
            _, v_eig = np.linalg.eigh(m)
            u = v_eig[:, 0]
            grad = np.array([u @ g_mats[a] @ u for a in range(k)])
            x = x + step * grad
            nrm = np.linalg.norm(x)
            if nrm == 0:
                break
            x /= nrm
            step = 0.5 / (1 + it / 25.0)
        m = sum(x[a] * g_mats[a] for a in range(k))
        val = float(np.min(np.linalg.eigvalsh(m)))
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


@pytest.mark.parametrize("k", [1, 3, 7])
def test_batched_starts_equal_sequential_draws(k):
    rng = np.random.default_rng(11)
    sequential = np.stack([rng.standard_normal(k) for _ in range(64)])
    assert np.array_equal(np.random.default_rng(11).standard_normal((64, k)), sequential)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_batched_search_matches_per_restart_loop(name, monkeypatch):
    s = catalog_entry(name)
    got = symplectic_feasibility(s)
    monkeypatch.setattr(conditions, "_ascent", ref_ascent)
    want = symplectic_feasibility(s)
    assert got["status"] == want["status"]
    assert got["witness"] == want["witness"]
    assert got["certificate"] == want["certificate"]
    assert abs(got["optimum"] - want["optimum"]) <= 1e-12


def test_restart_stepping_onto_zero_stops_there():
    # one 1x1 form: a start at -1 steps exactly onto 0 and must stay there
    # (optimum 0); a start at +1 stays at +1 (optimum 2)
    G = np.array([[[2.0]]])
    seen = set()
    for seed in range(6):
        got = conditions._ascent(G, seed, 1, 5)
        want = ref_ascent(G, seed, 1, 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        seen.add(got[0])
    assert seen == {0.0, 2.0}


HALF = Fraction(1, 2)


@pytest.mark.parametrize("name, p", [
    # certificate (1, -4/17, 5/34, -13/34)
    ("A4_1", [[-1, 0, -2, 1], [HALF, HALF, 0, 1], [2, -HALF, -HALF, 1], [0, -2, 2, 2]]),
    # no near-kernel eigenvector is isotropic: the certificate (1, -2/7, -3/7, 0)
    # is a vector of the kernel's rational basis
    ("A4_1", [[0, HALF, -2, HALF], [-1, -HALF, -2, -HALF], [-HALF, 0, -1, 0],
              [-1, -2, -1, -HALF]]),
    # certificate (1, 0, 5/8, -1/4)
    ("A4_8", [[-2, 2, 0, -2], [-1, 2, 2, 1], [-HALF, -HALF, 0, -2], [0, 1, 2, -HALF]]),
    # certificate (1042/3961, -1720/3961, 1, -1356/3961), beyond denominator 64
    ("A4_8", [[-2, 1, HALF, -HALF], [-2, -2, 0, 1], [-HALF, 2, 1, 0], [0, -HALF, 1, -HALF]]),
])
def test_certificate_lifted_in_a_rational_basis(name, p):
    # these changes of basis once left the search inconclusive: the
    # near-kernel eigenvectors, normalized to unit length and rounded to
    # denominator 64, were not isotropic
    s = catalog_entry(name).change_basis(np.array(p, dtype=object))
    out = symplectic_feasibility(s)
    assert out["status"] == "infeasible"
    assert_exactly_isotropic(s, out["certificate"])


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "abelian_kahler"])
def test_feasibility_sound_under_changes_of_basis(name):
    # soundness only: an undecided status is allowed, a wrong one or a
    # certificate that is not exactly isotropic is not
    entries = [0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2]
    rng = np.random.default_rng(3)
    for _ in range(3):
        while True:
            p = np.array([[entries[i] for i in row] for row in rng.integers(0, 8, (4, 4))],
                         dtype=object)
            if arith.determinant(p, arith.Field(True)) != 0:
                break
        s = catalog_entry(name).change_basis(p)
        out = symplectic_feasibility(s)
        assert out["status"] != "feasible"
        if isinstance(out["certificate"], list):
            assert_exactly_isotropic(s, out["certificate"])


def test_t_orth_im_n_warnings_only_on_lcs_structures():
    # T orth im N holds here but the structure is not LCS; the implications
    # behind the "T orth im N should imply ..." warnings need dF = theta ^ F
    # with d theta = 0, so none may fire
    from lcak.almostabelian import AlmostAbelianParams
    from lcak.specfile import run_report
    params = AlmostAbelianParams(2, -3, (0, -1), (-3, -1), ((0, -1), (1, 0)))
    _, s = build_almost_abelian(params)
    report = run_report(s)
    flags = report.condition_report["flags"]
    assert s.exact and not flags["is_lcs"] and flags["T_orthogonal_to_imN"]
    assert report.condition_report["warnings"] == []
    assert report.all_checks_pass


def _float_scaled(s, bracket=1.0, metric=1.0):
    brackets = {}
    for (i, j, k), v in s.alg.sparse_constants().items():
        brackets.setdefault((i, j), {})[k] = bracket * float(v)
    alg = LieAlgebra(s.dim, brackets, exact=False)
    return AlmostHermitianStructure(alg, np.asarray(s.J, dtype=float),
                                    metric * np.asarray(s.g, dtype=float))


# bracket scale 1e-6 is left out: absolute bounds on D theta and L_T J still
# flip adapted and Dtheta_J_invariant there
@pytest.mark.parametrize("kind,scale", [("bracket", 1e-3), ("bracket", 1e3), ("bracket", 1e6),
                                        ("metric", 1e-6), ("metric", 1e-3),
                                        ("metric", 1e3), ("metric", 1e6)])
def test_float_flags_match_exact_under_scaling(kind, scale):
    for name in CATALOG_NAMES:
        s = catalog_entry(name)
        want = classify_metric(s).flags
        got = classify_metric(_float_scaled(s, **{kind: scale})).flags
        assert got == want, (name, sorted(k for k in want if got[k] != want[k]))


def test_float_reproducer_with_small_brackets_passes(tmp_path):
    # A4_8 with every bracket scaled by 1/1000: check_adapted rescales g by
    # |theta|^2 = 1e-6, so F must be judged nondegenerate without an absolute bound
    from lcak.cli import main
    spec = {"dim": 4, "J": "mirror", "options": {"arithmetic_mode": "float"},
            "brackets": [{"i": 2, "j": 3, "coefficients": {"1": "1/1000"}},
                         {"i": 2, "j": 4, "coefficients": {"2": "1/1000"}},
                         {"i": 3, "j": 4, "coefficients": {"3": "-1/1000"}}]}
    path = tmp_path / "a48_small.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["check", str(path), "--expect", "pluricanonical=true"],
                out=io.StringIO()) == 0
