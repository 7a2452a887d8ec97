import numpy as np
import pytest

from lcak import conditions, fuzzing, identities
from lcak.almostabelian import (AlmostAbelianParams, build_almost_abelian,
                                pluricanonical_conditions_aa)
from lcak.conditions import classify_metric
from lcak.forms import KForm
from lcak.fuzzing import fuzz, random_unimodular_4d, summary_to_json
from lcak.hermitian import AlmostHermitianStructure


def test_fuzz_determinism_byte_identical():
    a = summary_to_json(fuzz(0, 10, "almost_abelian_4d"))
    b = summary_to_json(fuzz(0, 10, "almost_abelian_4d"))
    assert a == b


def test_fuzz_random_hermitian_200_samples_clean():
    summary = fuzz(1, 200, "random_hermitian")
    assert summary["identity_failures"] == []
    assert summary["worst_residuals"]["dj_theta_expansion"] <= 1e-8
    assert summary["worst_residuals"]["chern_ricci"] <= 1e-8
    assert summary["worst_residuals"]["bochner"] <= 1e-8


def test_fuzz_random_unimodular_200_samples_clean():
    summary = fuzz(2, 200, "random_unimodular")
    assert summary["identity_failures"] == []
    assert summary["worst_residuals"]["codifferential_one_form"] <= 1e-8
    assert summary["worst_residuals"]["dim4_integrand"] <= 1e-8


def test_fuzz_almost_abelian_4d_200_samples_clean():
    # every sample also goes through the implication and equivalence rows
    summary = fuzz(3, 200, "almost_abelian_4d")
    assert summary["identity_failures"] == []
    assert summary["worst_residuals"]["lee_cross_oracle"] <= 1e-8


def test_condition_system_oracle_is_silent_off_the_unimodular_locus(monkeypatch):
    # a + tr A = -1: the member is pluricanonical, while the dim-4 systems,
    # derived for a + tr A = 0, do not vanish on it
    member = AlmostAbelianParams(2, -1, (-1, 0), (1, 0), ((0, 0), (0, 0)))
    flags = classify_metric(build_almost_abelian(member)[1]).flags
    assert flags["is_lcs"] and flags["pluricanonical"] and not flags["unimodular"]
    assert pluricanonical_conditions_aa(member)["max_residual"] == 1
    monkeypatch.setattr(fuzzing, "random_params_4d", lambda rng, kind: member)
    assert fuzz(0, 4, "almost_abelian_4d")["identity_failures"] == []


def test_fuzz_rejects_unknown_family():
    with pytest.raises(ValueError):
        fuzz(0, 1, "no_such_family")


def test_random_unimodular_generator_postconditions():
    for seed in range(5):
        alg = random_unimodular_4d(np.random.default_rng(seed))
        assert alg.is_unimodular()[0]
        assert alg.jacobi_residual() <= 1e-12


def _plant_failures(monkeypatch):
    """Patch the checked functions so that the fuzzer records failures.

    almost_abelian_4d fails its yes/no checks (equivalences on every other
    sample, a pluricanonical flag flipped for the condition-system oracle, an
    extra warning on the third sample) and its Lee residual; random_unimodular
    fails the codifferential on the second of each sample's three alphas and
    the dim-4 integrand on odd samples; random_hermitian fails bochner on the second alpha of each
    sample and the Nijenhuis residual on every sample where it is checked.
    """
    calls = {}

    def tick(name):
        calls[name] = calls.get(name, 0) + 1
        return calls[name] - 1

    classify = conditions.classify_metric

    def planted_classify(s):
        rep = classify(s)
        rep.flags["pluricanonical"] = not rep.flags["pluricanonical"]
        if tick("classify") == 2:
            rep.warnings.append("planted warning")
        return rep

    lee = fuzzing.lee_form_aa
    codifferential = AlmostHermitianStructure.codifferential

    def planted_codifferential(self, obj):
        if getattr(obj, "degree", None) == 1 and tick("codifferential") % 3 == 1:
            return KForm(self.alg, 0, {(): -0.25})
        return codifferential(self, obj)

    monkeypatch.setattr(conditions, "classify_metric", planted_classify)
    monkeypatch.setattr(conditions, "verify_equivalences", lambda s, report: {
        "all_consistent": tick("equivalences") % 2 == 0})
    monkeypatch.setattr(fuzzing, "lee_form_aa",
                        lambda params, s: lee(params, s) + KForm.from_vector(s.alg, [0, 0, 0, 0.5]))
    monkeypatch.setattr(AlmostHermitianStructure, "codifferential", planted_codifferential)
    monkeypatch.setattr(identities, "dim4_integrand_value",
                        lambda s: 1e-3 if tick("dim4") % 2 else 0.0)
    monkeypatch.setattr(identities, "bochner_residual",
                        lambda s, alpha: -2e-6 if tick("bochner") % 2 else 0.0)
    monkeypatch.setattr(identities, "nijenhuis_cyclic_residual", lambda s: 3e-7)


AA_YES_NO = ("equivalences", "condition_system_oracle", "implication_warnings")

PLANTED = {
    "almost_abelian_4d": (8, [
        ("lee_cross_oracle", 0, 0.5), ("equivalences", 1, 1.0), ("lee_cross_oracle", 1, 0.5),
        ("condition_system_oracle", 2, 1.0), ("lee_cross_oracle", 2, 0.5),
        ("implication_warnings", 2, 1.0), ("equivalences", 3, 1.0),
        ("condition_system_oracle", 3, 1.0), ("lee_cross_oracle", 3, 0.5),
        ("lee_cross_oracle", 4, 0.5), ("equivalences", 5, 1.0), ("lee_cross_oracle", 5, 0.5),
        ("condition_system_oracle", 6, 1.0), ("lee_cross_oracle", 6, 0.5),
        ("equivalences", 7, 1.0), ("condition_system_oracle", 7, 1.0),
        ("lee_cross_oracle", 7, 0.5)]),
    "random_unimodular": (4, [
        ("codifferential_one_form", 0, 0.25), ("codifferential_one_form", 1, 0.25),
        ("dim4_integrand", 1, 1e-3), ("codifferential_one_form", 2, 0.25),
        ("codifferential_one_form", 3, 0.25), ("dim4_integrand", 3, 1e-3)]),
    "random_hermitian": (5, [
        ("bochner", 0, -2e-6), ("bochner", 1, -2e-6), ("bochner", 2, -2e-6),
        ("nijenhuis_cyclic_lcs", 2, 3e-7), ("bochner", 3, -2e-6), ("bochner", 4, -2e-6),
        ("nijenhuis_cyclic_lcs", 4, 3e-7)]),
}
CONTEXT_KEYS = {"equivalences": {"kind", "params"}, "condition_system_oracle": {"kind", "params"},
                "implication_warnings": {"warnings"}, "codifferential_one_form": {"alpha"},
                "dim4_integrand": {"constants"}}


@pytest.mark.parametrize("family", sorted(PLANTED))
def test_fuzz_records_planted_failures(monkeypatch, family):
    """Residuals fail above IDENTITY_TOL with their signed value; a yes/no
    check fails with residual 1.0 and stays out of worst_residuals."""
    _plant_failures(monkeypatch)
    count, expected = PLANTED[family]
    summary = fuzz(0, count, family)
    failures = summary["identity_failures"]
    assert [(f["check"], f["sample"]) for f in failures] == [(c, i) for c, i, _ in expected]
    assert [f["residual"] for f in failures] == pytest.approx([r for _, _, r in expected])
    kinds = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")
    for f in failures:
        assert set(f["context"]) == CONTEXT_KEYS.get(f["check"], set())
        if "kind" in f["context"]:
            assert f["context"]["kind"] == kinds[f["sample"] % 4]
            assert set(f["context"]["params"]) == {"a", "b", "v", "A"}
        if "warnings" in f["context"]:
            assert f["context"]["warnings"] == ["planted warning"]
    worst = summary["worst_residuals"]
    assert not set(AA_YES_NO) & set(worst)
    for check, _, residual in expected:
        if check not in AA_YES_NO:
            assert worst[check] == pytest.approx(abs(residual))
