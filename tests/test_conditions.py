import io
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dict_forms
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
    assert out["optimum"] is None and out["restarts"] == 0
    assert_exactly_isotropic(a41, out["certificate"])


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


# -- n = 2: the sign of the wedge square, with no search --------------------------

@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("q, positive, singular", [
    ([[-1, 0], [0, -2]], False, False),
    ([[0, 0], [0, -1]], False, True),
    ([[-1, 1], [1, -1]], False, True),
    ([[0, 1], [1, 0]], True, False),
    ([[-1, 2], [2, -1]], True, False),
    ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], True, False),
], ids=["negative_definite", "zero_pivot_zero_row", "singular_after_elimination",
        "zero_pivot_off_diagonal", "indefinite_after_elimination", "positive_pivot"])
def test_wedge_sign(q, positive, singular, exact):
    f = arith.Field(exact)
    q = f.array(q)
    x = conditions._wedge_sign(q, f)
    assert (x is not None) == positive
    if positive:
        x = f.array(x)
        assert x @ q @ x > 0
    assert bool(arith.nullspace(q, f)) == singular


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("q, positive", [
    # in float the pivot -1e-5 is 0 within the bound 1e-5, but its direction
    # (1 - q_jj) d_i + e d_j next to e = 1/10 has the value -900: the
    # elimination of q_jj decides instead
    ([[Fraction(-1, 10 ** 5), Fraction(1, 10)], [Fraction(1, 10), -10 ** 4]], False),
    ([[Fraction(-1, 10 ** 13), Fraction(2, 10 ** 9)], [Fraction(2, 10 ** 9), -10 ** 6]], False),
    # zero pivots next to an entry above the bound 1e-9 and below its square root
    ([[0, Fraction(1, 10 ** 6)], [Fraction(1, 10 ** 6), 0]], True),
], ids=["negative_pivot_within_the_bound", "tiny_pivot_tiny_entry", "zero_pivots_small_entry"])
def test_wedge_sign_near_zero_pivots(q, positive, exact):
    f = arith.Field(exact)
    q = f.array(q)
    x = conditions._wedge_sign(q, f)
    assert (x is not None) == positive
    if positive:
        x = f.array(x)
        assert x @ q @ x > 0


def ref_wedge_square(s, forms):
    """q(omega_a, omega_b) = omega_a ^ omega_b / F ^ F from the dict-backed wedge."""
    top = (0, 1, 2, 3)
    vol = dict_forms.wedge(s.F.coeffs, s.F.coeffs)[top]
    return np.array([[dict_forms.wedge(a.coeffs, b.coeffs).get(top, 0) / vol
                      for b in forms] for a in forms], dtype=object)


def assert_certified(s, out):
    """An exact dim-4 decision, checked exactly: a witness is closed,
    J-invariant and positive with <omega, F> = n; an isotropic vector
    vanishes on the whole subspace; a negative definite wedge square is
    recomputed from the dict-backed wedge."""
    f = arith.Field(True)
    forms = conditions._feasibility_subspace(s)
    assert out["optimum"] is None and out["restarts"] == 0
    if out["status"] == "feasible":
        w = out["witness"]
        m = w.matrix()
        assert w.d().is_zero() and f.is_zero(s.J.T @ m @ s.J - m)
        assert arith.is_positive_definite(Fraction(1, 2) * (m @ s.J + (m @ s.J).T), f)
        assert s.form_inner(w, s.F) == 2
        return "feasible"
    assert out["status"] == "infeasible", out
    cert = out["certificate"]
    if cert == "empty_subspace":
        assert not forms
    elif cert == "wedge_square_negative_definite":
        assert arith.is_positive_definite(-ref_wedge_square(s, forms), f)
    else:
        assert_exactly_isotropic(s, cert)
        return "isotropic"
    return cert


AA_VALUES = (0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2)
# the members decided feasible by the seeded ascent that searched before the
# sign test; it decided every other member of aa_4d_members() infeasible
AA_FEASIBLE = {5, 31, 32, 56, 60, 63, 69, 70, 74, 87, 96, 98, 104, 109, 114, 125,
               141, 148, 167, 179, 185, 192}


def aa_4d_members(count=200, seed=28):
    """Seeded exact dim-4 almost abelian members, entries from AA_VALUES."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        e = [AA_VALUES[i] for i in rng.integers(0, len(AA_VALUES), 9)]
        params = AlmostAbelianParams(2, e[0], tuple(e[1:3]), tuple(e[3:5]),
                                     (tuple(e[5:7]), tuple(e[7:9])))
        yield build_almost_abelian(params)[1]


def test_dim4_feasibility_runs_no_ascent(monkeypatch):
    calls = []
    monkeypatch.setattr(conditions, "_ascent", lambda *args: calls.append(args))
    for name in CATALOG_NAMES:
        assert symplectic_feasibility(catalog_entry(name))["status"] != "inconclusive"
    statuses = [symplectic_feasibility(s)["status"] for s in aa_4d_members()]
    assert calls == []
    assert statuses == ["feasible" if i in AA_FEASIBLE else "infeasible"
                        for i in range(200)]


def _bianchi(n1, n2, n3):
    return {(2, 3): {1: n1}, (1, 3): {2: -n2}, (1, 2): {3: n3}}


# dim-4 algebras under (J, g) = (P J_0 P^-1, P^-T P^-1), P random rational
RANDOM_J_ALGEBRAS = {
    "su2+R": _bianchi(1, 1, 1), "sl2+R": _bianchi(1, 1, -1), "e(1,1)+R": _bianchi(1, -1, 0),
    "r2+r2": {(1, 2): {2: 1}, (3, 4): {4: 1}},
    "aff(C)": {(1, 3): {3: 1}, (1, 4): {4: 1}, (2, 3): {4: 1}, (2, 4): {3: -1}},
    "d4,2": {(1, 2): {3: 1}, (1, 4): {1: -2}, (2, 4): {2: 1}, (3, 4): {3: -1}},
    "d4,1/2": {(1, 2): {3: 1}, (1, 4): {1: -Fraction(1, 2)}, (2, 4): {2: -Fraction(1, 2)},
               (3, 4): {3: -1}},
}


def random_j_structures(per_algebra=8, seed=5):
    f = arith.Field(True)
    entries = [0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2]
    rng = np.random.default_rng(seed)
    j0 = f.array(preset_j("split", 4))
    for brackets in RANDOM_J_ALGEBRAS.values():
        alg = LieAlgebra(4, brackets)
        for _ in range(per_algebra):
            p = f.array([[entries[i] for i in row] for row in rng.integers(0, 8, (4, 4))])
            if arith.determinant(p, f) == 0:
                continue
            p_inv = arith.invert(p, f)
            yield AlmostHermitianStructure(alg, np.asarray(p @ j0 @ p_inv),
                                           np.asarray(p_inv.T @ p_inv))


def test_every_dim4_decision_carries_an_exact_check():
    structures = [catalog_entry(name) for name in CATALOG_NAMES]
    structures += [*aa_4d_members(40), *random_j_structures()]
    kinds = Counter(assert_certified(s, symplectic_feasibility(s)) for s in structures)
    # the ascent decided one d4,2 member with a witness infeasible, with no
    # certificate; every kind of decision occurs
    assert set(kinds) == {"feasible", "isotropic", "wedge_square_negative_definite"}, kinds


@pytest.mark.parametrize("scale", [Fraction(1, 10 ** 6), 1, 10 ** 6], ids=["1e-6", "1", "1e6"])
def test_float_dim4_decisions_match_exact(scale):
    # the float decision does not depend on the metric's units
    for s in [*map(catalog_entry, CATALOG_NAMES), *random_j_structures(4, seed=6)]:
        want = symplectic_feasibility(s)
        got = symplectic_feasibility(s.rescaled(scale).as_float())
        assert got["status"] == want["status"]
        if isinstance(want["certificate"], str):
            assert got["certificate"] == want["certificate"]


# -- n = 3: the closed J-invariant forms of dim-6 algebras -----------------------

def _aa_6d(a, lam):
    """The almost abelian member with A = lam * id and b = v = 0, which is LCS."""
    A = [[lam if i == j else 0 for j in range(4)] for i in range(4)]
    return build_almost_abelian(AlmostAbelianParams(3, a, (0,) * 4, (0,) * 4, A))[1]


def _abelian_6d():
    return AlmostHermitianStructure(abelian_algebra(6), preset_j("split", 6))


DIM6_INFEASIBLE = {
    "R+h5": lambda: AlmostHermitianStructure(
        LieAlgebra(6, {(2, 5): {4: -1}, (3, 6): {4: -1}}), preset_j("split", 6)),
    "aa_a0_lam1": lambda: _aa_6d(0, 1),
    "aa_a-1_lam1/2": lambda: _aa_6d(-1, Fraction(1, 2)),
}


def test_feasibility_dim6_abelian_witness_is_f():
    s = _abelian_6d()
    out = symplectic_feasibility(s)
    assert out["search_space"] == "closed_j_invariant"
    assert out["status"] == "feasible"
    assert out["witness"] == KForm.from_terms(s.alg, {(1, 4): 1, (2, 5): 1, (3, 6): 1})


@pytest.mark.parametrize("make", DIM6_INFEASIBLE.values(), ids=DIM6_INFEASIBLE)
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


def _plus_plane(s):
    """The dim-4 structure s plus an abelian plane e5, e6 with J e5 = e6 and g
    the identity on it: dim 6, where the search still runs."""
    f = arith.Field(True)
    brackets = {}
    for (i, j, k), v in s.alg.sparse_constants().items():
        brackets.setdefault((i, j), {})[k] = v
    j6, g6 = f.zeros(6, 6), f.eye(6)
    j6[:4, :4], j6[4, 5], j6[5, 4] = s.J, -1, 1
    g6[:4, :4] = s.g
    alg = LieAlgebra(6, brackets)
    assert alg.sparse_constants() == s.alg.sparse_constants()
    return AlmostHermitianStructure(alg, np.asarray(j6), np.asarray(g6))


BATCHED_CASES = {**{name: lambda name=name: _plus_plane(catalog_entry(name))
                    for name in CATALOG_NAMES},
                 "abelian_6d": _abelian_6d, **DIM6_INFEASIBLE}


@pytest.mark.parametrize("make", BATCHED_CASES.values(), ids=BATCHED_CASES)
def test_batched_search_matches_per_restart_loop(make, monkeypatch):
    # a catalog id is that dim-4 entry plus an abelian plane (_plus_plane)
    s = make()
    assert s.dim == 6
    got = symplectic_feasibility(s)
    monkeypatch.setattr(conditions, "_ascent", ref_ascent)
    want = symplectic_feasibility(s)
    assert got["status"] == want["status"]
    assert got["witness"] == want["witness"]
    assert got["certificate"] == want["certificate"]
    assert abs(got["optimum"] - want["optimum"]) <= 1e-12


def test_dim6_feasible_needs_a_witness_checked_in_the_field(monkeypatch):
    # the ascent finds a positive optimum, but no rounded witness passes the
    # exact positivity check: no float witness stands in for it
    monkeypatch.setattr(conditions, "_scaled_witness", lambda s, omega: None)
    out = symplectic_feasibility(_abelian_6d())
    assert out["optimum"] > 0
    assert (out["status"], out["witness"], out["certificate"]) == ("inconclusive", None, None)


@pytest.mark.parametrize("name", BATCHED_CASES)
def test_float_dim6_witness_is_positive_and_scaled(name):
    s = BATCHED_CASES[name]().as_float()
    out = symplectic_feasibility(s)
    if out["status"] == "feasible":
        m = out["witness"].matrix() @ s.J
        assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0
        assert abs(s.form_inner(out["witness"], s.F) - 3) <= 1e-12
    assert (out["status"] == "feasible") == (name in ("abelian_6d", "abelian_kahler"))


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
    # certificate (1, 3/5, 0, 1/5, 0, 0)
    ("A4_1", [[HALF, -HALF, -1, 2], [HALF, -HALF, -1, -1], [HALF, HALF, 2, HALF],
              [-1, 2, 0, -1]]),
    # certificate (-1/8, 1/2, 1, 0, 0, 0)
    ("A4_1", [[-1, -2, -1, HALF], [0, 2, -1, -1], [0, -HALF, -HALF, 1], [2, HALF, 0, 0]]),
    # certificate (1, 0, 1/4, -5/8, 0, 0)
    ("A4_8", [[1, -2, 2, -1], [HALF, HALF, -2, 0], [-1, -HALF, -1, -2], [-2, 2, -1, -2]]),
    # certificate (-2/3, 1, -1/3, 0, 0, 0)
    ("A4_8", [[-HALF, HALF, 0, 0], [2, 2, 2, HALF], [2, 1, -1, 2], [0, 1, 0, -1]]),
])
def test_certificate_lifted_in_a_rational_basis(name, p):
    # the entry in a changed basis plus an abelian plane (_plus_plane), where
    # the search runs: the optimum's near-kernel has dimension 2, and none of
    # its eigenvectors, normalized to unit length and rounded to denominator
    # 64 or 4096, is isotropic; without the kernel's rational basis the
    # search would be inconclusive on each of these
    s = _plus_plane(catalog_entry(name).change_basis(np.array(p, dtype=object)))
    out = symplectic_feasibility(s)
    assert out["status"] == "infeasible"
    assert_exactly_isotropic(s, out["certificate"])


def test_dim6_infeasible_only_with_an_exact_certificate():
    # the 22 members with a dim-4 witness omega, lifted by _plus_plane, where
    # omega + e56 is a witness: 21 are found feasible; the ascent ends at -0.22
    # on one d4,2 member and finds no isotropic vector, so that search is
    # inconclusive, not infeasible
    statuses = Counter()
    for s in random_j_structures(8, seed=5):
        if symplectic_feasibility(s)["status"] == "feasible":
            lifted = _plus_plane(s)
            out = symplectic_feasibility(lifted)
            statuses[out["status"]] += 1
            if out["status"] == "infeasible":
                assert_exactly_isotropic(lifted, out["certificate"])
    assert statuses == Counter(feasible=21, inconclusive=1), statuses


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "abelian_kahler"])
def test_feasibility_sound_under_changes_of_basis(name):
    # every change of basis keeps the entry infeasible, with an exactly
    # isotropic certificate
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
        assert out["status"] == "infeasible"
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
