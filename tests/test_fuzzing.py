import numpy as np
import pytest

from lcak import fuzzing
from lcak.almostabelian import (AlmostAbelianParams, build_almost_abelian,
                                pluricanonical_conditions_aa)
from lcak.conditions import classify_metric
from lcak.fuzzing import fuzz, random_unimodular_4d, summary_to_json


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
