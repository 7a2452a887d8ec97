import numpy as np
import pytest

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


def test_fuzz_rejects_unknown_family():
    with pytest.raises(ValueError):
        fuzz(0, 1, "no_such_family")


def test_random_unimodular_generator_postconditions():
    for seed in range(5):
        alg = random_unimodular_4d(np.random.default_rng(seed))
        assert alg.is_unimodular()[0]
        assert alg.jacobi_residual() <= 1e-12
