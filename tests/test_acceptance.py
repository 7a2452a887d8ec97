"""Acceptance suite: one test per criterion, pinned tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Exact-arithmetic criteria use tolerance 0; float criteria use
the stated relative residual bounds (1e-8) or flag tolerance (1e-9).
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from identity_helpers import conjugated_lcs_4d, unimodular_lcs_orthogonal_sample
from lcak import arith, connection, identities
from lcak.catalogs import catalog_entry
from lcak.conditions import (_feasibility_subspace, classify_metric, symplectic_feasibility,
                             verify_equivalences)
from lcak.forms import KForm
from lcak.fuzzing import (_random_j_invariant_pair, build_almost_abelian,
                          random_compatible_pair, random_hermitian_structure,
                          random_params_4d, random_unimodular_4d)
from lcak.hermitian import AlmostHermitianStructure

TOL = 1e-9
IDENTITY_TOL = 1e-8


def _report(number, label, elapsed, budget):
    print(f"\nACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_exact_reproduction_a41():
    t0 = time.time()
    s = catalog_entry("A4_1")
    assert s.F.d() == KForm.from_terms(s.alg, {(2, 3, 4): 1})
    lee = s.lee_form()
    assert lee.theta == KForm.from_terms(s.alg, {(3,): -1})
    n12 = s.nijenhuis(s.basis_vector(0), s.basis_vector(1))
    expected_n = arith.Field(True).zeros(4)
    expected_n[1] = Fraction(1, 4)
    assert all(a == b for a, b in zip(n12, expected_n))
    dth_sym = s.split_tensor(connection.covariant_one_form(s, lee.theta))["sym"]
    expected = arith.Field(True).zeros(4, 4)
    expected[1, 3] = Fraction(1, 2)
    expected[3, 1] = Fraction(1, 2)
    assert arith.max_abs(dth_sym - expected) == 0
    rep = classify_metric(s)
    assert rep.flags["pluricanonical"] is True
    _report(1, "A4_1 tensors reproduced with exact equality", time.time() - t0, 1.0)


def test_criterion_2_exact_reproduction_a48():
    t0 = time.time()
    s = catalog_entry("A4_8")
    assert s.F.d() == KForm.from_terms(s.alg, {(2, 3, 4): -1})
    lee = s.lee_form()
    assert lee.theta == KForm.from_terms(s.alg, {(4,): -1})
    n12 = s.nijenhuis(s.basis_vector(0), s.basis_vector(1))
    expected_n = arith.Field(True).zeros(4)
    expected_n[2] = Fraction(1, 2)
    assert all(a == b for a, b in zip(n12, expected_n))
    dth_sym = s.split_tensor(connection.covariant_one_form(s, lee.theta))["sym"]
    expected = arith.Field(True).zeros(4, 4)
    expected[1, 1] = Fraction(-1)
    expected[2, 2] = Fraction(1)
    assert arith.max_abs(dth_sym - expected) == 0
    image = s.nijenhuis_image()
    assert len(image) == 2
    for vec in image:
        assert vec[0] == 0 and vec[3] == 0  # contained in span(e2, e3)
    span = arith.Field(True).zeros(2, 4)
    span[0, 1] = Fraction(1)
    span[1, 2] = Fraction(1)
    assert arith.rank(np.vstack([np.array([list(v) for v in image], dtype=object),
                                 span]), arith.Field(True)) == 2  # equals span(e2, e3)
    rep = classify_metric(s)
    assert rep.flags["pluricanonical"] is True
    _report(2, "A4_8 tensors reproduced with exact equality", time.time() - t0, 1.0)


def test_criterion_3_first_kind_adapted_equivalence():
    t0 = time.time()
    for name in ("A4_1", "A4_8"):
        s = catalog_entry(name)
        rep = classify_metric(s)
        eq = verify_equivalences(s, report=rep)
        assert eq["first_kind_adapted"]["applicable"]
        assert eq["first_kind_adapted"]["consistent"], name
        assert rep.flags["pluricanonical"] and rep.flags["first_kind"] \
            and rep.flags["adapted"]
    disagreements = 0
    count = 500
    rng_master = np.random.SeedSequence(31)
    for idx, child in enumerate(rng_master.spawn(count)):
        rng = np.random.default_rng(child)
        kind = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")[idx % 4]
        s = build_almost_abelian(random_params_4d(rng, kind))[1].as_float()
        rep = classify_metric(s)
        eq = verify_equivalences(s, report=rep)
        entry = eq["first_kind_adapted"]
        if entry["applicable"] and not entry["consistent"]:
            disagreements += 1
    assert disagreements == 0
    _report(3, f"(first kind & adapted) <=> pluricanonical on catalog + {count} "
               f"fuzzed structures, 0 disagreements", time.time() - t0, 30.0)


def test_criterion_4_unimodular_bracket_criterion():
    t0 = time.time()
    count = 500
    agree = 0
    applicable = 0
    for idx, child in enumerate(np.random.SeedSequence(47).spawn(count)):
        rng = np.random.default_rng(child)
        s = unimodular_lcs_orthogonal_sample(rng)
        rep = classify_metric(s)
        assert rep.flags["is_lcs"] and rep.flags["unimodular"] \
            and rep.flags["T_orthogonal_to_imN"], "sample violates its own family"
        lee = s.lee_form()
        bracket = s.alg.bracket(lee.T, lee.JT)
        val = abs(float(bracket @ s.g @ lee.JT))
        scale = max(1.0, arith.max_abs(bracket) * max(1.0, arith.max_abs(lee.JT)))
        rhs = val <= TOL * scale
        applicable += 1
        if rep.flags["pluricanonical"] == rhs:
            agree += 1
    assert applicable == count
    assert agree == count, f"{count - agree} disagreements"
    _report(4, f"pluricanonical <=> g([T,JT],JT)=0 agreed on {agree}/{count} "
               f"unimodular LCS samples with T orth im N", time.time() - t0, 60.0)


def test_criterion_5_identity_fuzzing():
    t0 = time.time()
    count = 200
    worst = {"dj_theta": 0.0, "chern": 0.0, "bochner": 0.0, "j_inv_wedge": 0.0,
             "cov_f": 0.0, "cyclic": 0.0}
    for idx, child in enumerate(np.random.SeedSequence(53).spawn(count)):
        rng = np.random.default_rng(child)
        s = random_hermitian_structure(rng, dim=4)
        worst["dj_theta"] = max(worst["dj_theta"],
                                identities.dj_theta_expansion_residual(s))
        worst["chern"] = max(worst["chern"], identities.chern_ricci_residual(s))
        for _ in range(10):
            worst["bochner"] = max(worst["bochner"], identities.bochner_residual(
                s, rng.standard_normal(4)))
        phi, psi = _random_j_invariant_pair(s, rng)
        worst["j_inv_wedge"] = max(worst["j_inv_wedge"],
                                   identities.j_invariant_wedge_residual(s, phi, psi))
    for idx, child in enumerate(np.random.SeedSequence(59).spawn(count)):
        rng = np.random.default_rng(child)
        if idx % 4 == 3:
            s = random_hermitian_structure(rng, dim=6)  # conjugated LCS, dim 6
        else:
            s = conjugated_lcs_4d(rng) if idx % 2 else build_almost_abelian(
                random_params_4d(rng, "lee_closed"))[1].as_float()
        from lcak.conditions import check_lcs
        assert check_lcs(s)["is_lcs"], "LCS family produced a non-LCS sample"
        worst["cov_f"] = max(worst["cov_f"], identities.covariant_f_residual(s))
        worst["cyclic"] = max(worst["cyclic"],
                              identities.nijenhuis_cyclic_residual(s))
    for name, value in worst.items():
        assert value <= IDENTITY_TOL, f"{name} residual {value:.3e}"
    elapsed = time.time() - t0
    _report(5, "six tensor identities on 200+200 fuzzed structures, "
               f"worst residual {max(worst.values()):.2e}", elapsed, 120.0)


def test_criterion_6_dim4_unimodular_integrand():
    t0 = time.time()
    count = 200
    violations = []
    for idx, child in enumerate(np.random.SeedSequence(61).spawn(count)):
        rng = np.random.default_rng(child)
        alg = random_unimodular_4d(rng)
        jm, g = random_compatible_pair(rng, 4)
        s = AlmostHermitianStructure(alg, jm, g)
        value = identities.dim4_integrand_value(s)
        lee_scale = max(1.0, float(abs(s.lee_form().norm_sq)) ** 2)
        if abs(value) > IDENTITY_TOL * lee_scale:
            violations.append({
                "sample": idx,
                "value": value,
                "structure_constants": {f"{i},{j}->{k}": float(v) for (i, j, k), v
                                        in alg.sparse_constants().items()},
            })
    assert not violations, f"integrand violations (logged for triage): {violations}"
    _report(6, f"dim-4 unimodular integrand vanished on {count} fuzzed structures",
            time.time() - t0, 60.0)


def test_criterion_7_classification():
    t0 = time.time()
    from lcak.almostabelian import AlmostAbelianParams, classify_4d
    count = 300
    seen = {"A4_1": 0, "A3_4_plus_A1": 0, "A3_6_plus_A1": 0}
    for idx, child in enumerate(np.random.SeedSequence(67).spawn(count)):
        rng = np.random.default_rng(child)
        v = rng.uniform(-2, 2, size=2)
        while np.linalg.norm(v) < 0.3:
            v = rng.uniform(-2, 2, size=2)
        if idx % 3 == 0:   # rotate a perpendicular b: exact b.v = 0 draws
            b = float(rng.uniform(0.4, 2.0)) * np.array([-v[1], v[0]]) / np.linalg.norm(v)
        else:
            b = rng.uniform(-2, 2, size=2)
            while np.linalg.norm(b) < 0.3:
                b = rng.uniform(-2, 2, size=2)
        params = AlmostAbelianParams(2, 0.0, tuple(float(x) for x in b),
                                     tuple(float(x) for x in v),
                                     ((0.0, 0.0), (0.0, 0.0)))
        label = classify_4d(params)
        assert label.name in seen, f"unexpected label {label.name}"
        assert label.invariants["jordan_cross_check"], label
        bv = float(b @ v)
        expected = ("A4_1" if abs(bv) <= TOL
                    else "A3_4_plus_A1" if bv > 0 else "A3_6_plus_A1")
        assert label.name == expected
        seen[label.name] += 1
    assert all(seen.values()), f"coverage hole: {seen}"
    _report(7, f"300 classified into {seen} with Jordan cross-check 100%",
            time.time() - t0, 30.0)


def test_criterion_8_symplectic_feasibility():
    t0 = time.time()
    for name in ("A4_1", "A4_8"):
        out = symplectic_feasibility(catalog_entry(name))
        assert out["status"] == "infeasible", (name, out)
        # the wedge square is negative semidefinite and singular there, so
        # infeasibility is certified by an exact isotropic vector
        assert out["optimum"] is None, name
        s = catalog_entry(name)
        u = np.array([Fraction(c) for c in out["certificate"]], dtype=object)
        assert any(c != 0 for c in u), name
        for w in _feasibility_subspace(s):
            assert u @ w.matrix() @ (s.J @ u) == 0, name
    out = symplectic_feasibility(catalog_entry("abelian_kahler"))
    assert out["status"] == "feasible"
    assert out["witness"] == catalog_entry("abelian_kahler").F
    _report(8, "A4_1/A4_8 certified infeasible; abelian witness is F itself",
            time.time() - t0, 60.0)


def test_criterion_9_anti_pluricanonical_equivalence():
    t0 = time.time()
    count = 300
    agree = 0
    positives = 0
    for idx, child in enumerate(np.random.SeedSequence(71).spawn(count)):
        rng = np.random.default_rng(child)
        pick = idx % 3
        if pick == 0:
            s = build_almost_abelian(random_params_4d(rng, "lee_closed"))[1].as_float()
        elif pick == 1:
            s = conjugated_lcs_4d(rng)
        else:
            s = build_almost_abelian(
                random_params_4d(rng, "pluricanonical"))[1].as_float()
        rep = classify_metric(s)
        if not rep.flags["is_lcs"]:
            continue
        anti = rep.flags["anti_pluricanonical"]
        holo = rep.flags["lee_field_holomorphic"]
        if anti:
            positives += 1
        if anti == holo:
            agree += 1
        else:
            pytest.fail(f"sample {idx}: anti_pluricanonical={anti} but "
                        f"lee_field_holomorphic={holo}")
    assert agree >= count * 0.99 and positives >= 10
    _report(9, f"anti-pluricanonical <=> L_T J = 0 agreed on {agree} samples "
               f"({positives} positives)", time.time() - t0, 60.0)
