"""The adapted test against its rescale-and-rebuild reference, and the
work one report does.

``check_adapted`` applies the scaling g -> |theta|^2 g to its residuals
instead of building the rescaled structure; ``ref_adapted`` keeps the
rebuild.  Exact residual dicts must be equal, float ones within round-off.
"""
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lcak import arith, conditions
from lcak.algebra import LieAlgebra
from lcak.almostabelian import AlmostAbelianParams, build_almost_abelian
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.conditions import check_adapted, classify_metric, symplectic_feasibility
from lcak.hermitian import AlmostHermitianStructure, preset_j
from lcak.specfile import run_report
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
    got, want = check_adapted(s, strict=False), ref_check_adapted(s, strict=False)
    assert got == want
    fs = s.as_float()
    got, want = check_adapted(fs, strict=False), ref_check_adapted(fs, strict=False)
    assert {k: got[k] for k in FLAGS} == {k: want[k] for k in FLAGS}
    assert got["residuals"].keys() == want["residuals"].keys()
    for key, value in got["residuals"].items():
        assert abs(value - want["residuals"][key]) <= 1e-12, key


def test_the_generated_members_are_of_the_first_kind():
    members = _aa_first_kind_members(12, seed=4) + _vaisman_6d_members(6, seed=6)
    assert all(check_adapted(s, strict=False)["first_kind"] for s in members)


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
