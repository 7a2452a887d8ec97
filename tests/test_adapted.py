"""The adapted test against its rescale-and-rebuild reference, the
identities it no longer tests, and the work one report does.

``check_adapted`` decides only the conditions that are not identities, on
the structure as given; ``ref_adapted`` rebuilds the structure with
|theta| = 1 and tests every condition.  Both must give the same decisions,
and the residuals they share must be equal (exact) or agree within
round-off (float).  The conditions left out must hold identically.
"""
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lcak import arith, conditions
from lcak.algebra import LieAlgebra
from lcak.almostabelian import AlmostAbelianParams, build_almost_abelian
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.conditions import (automorphism_algebra, check_adapted, check_first_kind,
                             classify_metric, symplectic_feasibility)
from lcak.fuzzing import random_hermitian_structure
from lcak.hermitian import AlmostHermitianStructure, preset_j
from lcak.specfile import run_report
from identity_helpers import conjugated_lcs_4d
from ref_adapted import ref_check_adapted

SCALES = (1, 4, 9, Fraction(1, 3), Fraction(2, 7))
FLAGS = ("adapted", "first_kind", "scale_normalized")


def _aa_first_kind_members(count, seed):
    """Exact dim-4 almost abelian members with a = 0, A = 0 and rational b, v."""
    rng = np.random.default_rng(seed)

    def rational():
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))

    return [build_almost_abelian(AlmostAbelianParams(
        2, 0, (rational(), rational()), (rational(), rational()), ((0, 0), (0, 0))))[1]
        for _ in range(count)]


def _vaisman_6d_members(count, seed):
    """R + h_5 with F = d eta - theta ^ eta (theta = -e^1, eta = e^4), in
    rational bases and metric scales.

    An almost abelian LCS structure in its adapted frame is never of the
    first kind from dim 6 on: there theta is a multiple of e^6, and the part
    of L_{e_6} F on the ideal is -c F, so dim 6 takes this algebra instead.
    """
    alg = LieAlgebra(6, {(2, 5): {4: -1}, (3, 6): {4: -1}})
    base = AlmostHermitianStructure(alg, preset_j("split", 6))
    rng = np.random.default_rng(seed)
    entries = [0, 0, 1, -1, Fraction(1, 2), 2]
    out = []
    while len(out) < count:
        p = np.array([[entries[i] for i in row] for row in rng.integers(0, 6, (6, 6))],
                     dtype=object)
        if arith.determinant(p, arith.Field(True)) != 0:
            out.append(base.change_basis(p).rescaled(SCALES[len(out) % len(SCALES)]))
    return out


CASES = ([(f"{name}-scale{i}", catalog_entry(name).rescaled(scale))
          for name in CATALOG_NAMES for i, scale in enumerate(SCALES)]
         + [(f"aa4_{i}", s) for i, s in enumerate(_aa_first_kind_members(12, seed=4))]
         + [(f"vaisman6_{i}", s) for i, s in enumerate(_vaisman_6d_members(6, seed=6))])


@pytest.mark.parametrize("label, s", CASES, ids=[label for label, _ in CASES])
def test_analytic_normalization_matches_the_rebuild(label, s):
    got, want = check_adapted(s), ref_check_adapted(s)
    assert {k: got[k] for k in FLAGS} == {k: want[k] for k in FLAGS}
    assert got["lee_norm_sq"] == want["lee_norm_sq"]
    assert got["residuals"] == {k: want["residuals"][k] for k in got["residuals"]}
    assert set(got["residuals"]) == ({"automorphism", "deta_metric_symmetric",
                                      "deta_metric_positive"} if got["first_kind"] else set())
    fs = s.as_float()
    got, want = check_adapted(fs), ref_check_adapted(fs)
    assert {k: got[k] for k in FLAGS} == {k: want[k] for k in FLAGS}
    for key, value in got["residuals"].items():
        assert abs(value - want["residuals"][key]) <= 1e-12, key


def test_the_generated_members_are_of_the_first_kind():
    members = _aa_first_kind_members(12, seed=4) + _vaisman_6d_members(6, seed=6)
    assert all(check_adapted(s)["first_kind"] for s in members)


# -- the conditions the adapted test leaves out are identities ------------------

def _identity_residuals(s):
    """(residual, scale) of each condition that holds for every valid (J, g)
    with theta != 0, plus theta(U) = 1 and F = d eta_U - theta ^ eta_U for an
    automorphism U of F on first-kind structures.

    T and eta are built here as J V and -i_T F, and |theta|^2 as <theta,
    theta>, not read from the Lee data.  Each scale is the product of the
    operands' max-norms.
    """
    f, lee = s.field, s.lee_form()
    m = arith.max_abs
    theta, v = lee.theta.vector(), lee.V
    t = s.J @ v
    eta = -1 * s.F.contract(t)
    norm_sq = s.form_inner(lee.theta, lee.theta)
    theta_eta, tv = f.array([theta, eta.vector()]), f.array([t, v])
    h = f.array(arith.nullspace(theta_eta, f))
    n_theta, n_t, n_j, n_g, n_f = m(theta), m(tv), m(s.J), m(s.g), m(s.F.matrix())
    out = {
        "theta_of_T": (t @ theta - norm_sq, n_t * n_theta),
        "jtheta_plus_eta": ((s.j_one_form(lee.theta) + eta).max_abs(),
                            n_j * n_theta + n_t * n_f),
        "h_dimension_defect": (len(h) - (s.dim - 2), 1.0),
        "j_preserves_h": (m(h @ s.J.T @ theta_eta.T), m(h) * n_j * m(theta_eta)),
        "splitting_orthogonal": (m(h @ s.g @ tv.T), m(h) * n_g * n_t),
        "tv_orthonormal": (m(tv @ s.g @ tv.T - norm_sq * f.eye(2)), n_g * n_t * n_t),
    }
    if check_first_kind(s)["first_kind"]:
        aut = automorphism_algebra(s)
        x, value = max(zip(aut.basis, aut.lee_values), key=lambda p: abs(float(p[1])))
        u = x * (f.scalar(1) / value)
        eta_u = -1 * s.F.contract(u)
        recon = eta_u.d() - lee.theta.wedge(eta_u) - s.F
        out["theta_of_U"] = (u @ theta - 1, 1.0)
        out["f_reconstruction"] = (recon.max_abs(), n_f * max(1.0, m(u) * n_theta))
    return out


def _rational_bases(count, seed):
    rng = np.random.default_rng(seed)
    entries = [0, 0, 1, -1, Fraction(1, 2), 2, Fraction(-2, 3)]
    while count:
        p = np.array([[entries[i] for i in row] for row in rng.integers(0, 7, (4, 4))],
                     dtype=object)
        if arith.determinant(p, arith.Field(True)) != 0:
            count -= 1
            yield p


def test_left_out_conditions_hold_exactly_on_the_catalog():
    first_kind = 0
    for name in CATALOG_NAMES:
        base = catalog_entry(name)
        if base.lee_form().theta.is_zero():
            continue
        for i, p in enumerate(_rational_bases(20, seed=len(name))):
            s = base.change_basis(p).rescaled(SCALES[i % len(SCALES)])
            res = _identity_residuals(s)
            assert {k: r for k, (r, _) in res.items() if r != 0} == {}, (name, i)
            first_kind += "f_reconstruction" in res
    assert first_kind == 5 * 20  # every entry with theta != 0, in every basis


def test_left_out_conditions_hold_in_floats():
    rng = np.random.default_rng(24)
    samples = first_kind = 0
    while samples < 100:
        kind = samples % 4
        s = (conjugated_lcs_4d(rng) if kind == 2
             else random_hermitian_structure(rng, dim=6 if kind == 3 else 4))
        if arith.max_abs(s.lee_form().theta.vector()) <= 1e-6:
            continue
        samples += 1
        res = _identity_residuals(s)
        bad = {k: float(r) for k, (r, scale) in res.items() if abs(float(r)) > 1e-9 * scale}
        assert bad == {}, samples
        first_kind += "f_reconstruction" in res
    assert first_kind >= 40


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_report_decides_each_flag_once(monkeypatch):
    base = catalog_entry("A4_1")
    counts = Counter()
    for owner, name in ((AlmostHermitianStructure, "__init__"), (conditions, "check_lcs"),
                        (conditions, "automorphism_algebra")):
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    report = run_report(base.rescaled(4))
    assert report.condition_report["flags"]["adapted"] and report.all_checks_pass
    # the one structure is the rescaled input itself
    assert counts == {"__init__": 1, "check_lcs": 1, "automorphism_algebra": 1}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exact_arrays_are_never_expanded_to_fractions(name, monkeypatch):
    s = catalog_entry(name)
    expanded = []
    to_array = arith.QArray.__array__

    def counting(self, dtype=None, copy=None):
        if dtype is None or np.dtype(dtype).kind != "f":
            expanded.append(self.shape)
        return to_array(self, dtype, copy)

    monkeypatch.setattr(arith.QArray, "__array__", counting)
    classify_metric(s)
    symplectic_feasibility(s)
    assert expanded == []
