"""The algebra's field is the only arithmetic context.

A spec file's arithmetic mode (exact, unless the file asks for "float") and
tolerance are decided once, in ``load_spec``, and every structure reads its
algebra's field: the mode and the tolerance of a decision cannot depend on
which module made it.
"""
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from identity_helpers import unimodular_lcs_orthogonal_sample
from lcak.algebra import LieAlgebra
from lcak.almostabelian import AlmostAbelianParams, build_almost_abelian
from lcak.catalogs import CATALOG_NAMES, catalog_entry
from lcak.cli import main
from lcak.errors import ParseError, ValidationError
from lcak.fuzzing import (random_compatible_pair, random_hermitian_structure,
                          random_params_4d, random_unimodular_4d)
from lcak.hermitian import AlmostHermitianStructure, preset_j
from lcak.specfile import load_spec, run_report


def a41_spec(mode=None, bracket="1", g="identity", tolerance=None):
    options = {}
    if mode is not None:
        options["arithmetic_mode"] = mode
    if tolerance is not None:
        options["tolerance"] = tolerance
    return {"dim": 4, "name": "A4_1",
            "brackets": [{"i": 2, "j": 4, "coefficients": {"1": bracket}},
                         {"i": 3, "j": 4, "coefficients": {"2": "1"}}],
            "J": "split", "g": g, "options": options}


DECIMAL_G = [[1.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1.5, 0], [0, 0, 0, 1]]
FRACTION_G = [["3/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, "3/2", 0], [0, 0, 0, 1]]


def check_file(tmp_path, spec, *args):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = io.StringIO()
    return main(["check", str(path), *args], out=out), out.getvalue()


# -- a decimal is the rational it is written as, unless the file asks for "float" ------

# name -> (a41_spec arguments written with decimals, the same values as fractions)
DECIMALS = {
    "decimal_bracket": ({"bracket": 0.5}, {"bracket": "1/2"}),
    "decimal_g": ({"g": DECIMAL_G}, {"g": FRACTION_G}),
    "decimal_string": ({"bracket": "0.5", "g": [[str(v) for v in row] for row in DECIMAL_G]},
                       {"bracket": "1/2", "g": FRACTION_G}),
    "exponent_string": ({"bracket": "5e-1"}, {"bracket": "1/2"}),
}


@pytest.mark.parametrize("mode", [None, "exact"], ids=["auto", "exact"])
@pytest.mark.parametrize("name", sorted(DECIMALS))
def test_a_decimal_is_the_rational_it_is_written_as(tmp_path, capsys, name, mode):
    decimals, fractions = DECIMALS[name]
    s = load_spec(a41_spec(mode, **decimals))
    assert s.exact and s.alg.exact
    report = run_report(load_spec(a41_spec(mode, **fractions))).to_json()
    assert run_report(s).to_json() == report
    assert json.loads(report)["arithmetic_mode"] == "exact"
    assert check_file(tmp_path, a41_spec(mode, **decimals), "--json") == (0, report)
    float_spec = a41_spec("float", **decimals)
    assert not load_spec(float_spec).exact
    assert check_file(tmp_path, float_spec, "--exact") == (2, "")
    assert 'asks for arithmetic_mode "float"' in capsys.readouterr().err


def test_a_decimal_string_bracket_makes_an_exact_algebra():
    alg = LieAlgebra(4, {(2, 4): {1: "0.5"}, (3, 4): {2: "1e-3"}})
    assert alg.exact
    assert alg.sparse_constants() == {(2, 4, 1): Fraction(1, 2), (3, 4, 2): Fraction(1, 1000)}


# (bracket scale, metric scale): each catalog entry written with decimal strings under
# these scales loads exact and has the flags of the unscaled entry
DECIMAL_SCALES = [("1e-6", "1"), ("1e-9", "1"), ("1", "1e-9"), ("1", "1e-6"),
                  ("1e-6", "1e-6"), ("1e-9", "1e-6")]
# scales whose residuals leave the float range: inf or the least subnormal, never a crash
# and never an exact nonzero read as 0
EXTREME_SCALES = [("1e200", "1"), ("1e400", "1"), ("1", "1e-400"), ("1e-400", "1e400")]


def decimal_probe(name, bracket_scale, metric_scale):
    """Catalog entry ``name`` (constants 0 and +-1, g the identity) as a spec file of
    decimal strings, its brackets times ``bracket_scale`` and its metric times
    ``metric_scale``."""
    s = catalog_entry(name)
    brackets = {}
    for (i, j, k), c in s.alg.sparse_constants().items():
        assert abs(c) == 1
        brackets.setdefault((i, j), {})[str(k)] = ("-" if c < 0 else "") + bracket_scale
    return {"dim": s.dim, "name": name,
            "brackets": [{"i": i, "j": j, "coefficients": c} for (i, j), c in brackets.items()],
            "J": [[str(int(v)) for v in row] for row in np.asarray(s.J).tolist()],
            "g": [[metric_scale if a == b else "0.0" for b in range(s.dim)]
                  for a in range(s.dim)]}


@pytest.mark.parametrize("scales", DECIMAL_SCALES + EXTREME_SCALES, ids="-".join)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_rescaled_catalog_entry_in_decimals_keeps_its_flags(name, scales):
    expected = run_report(catalog_entry(name)).condition_report["flags"]
    s = load_spec(decimal_probe(name, *scales))
    assert s.exact
    assert run_report(s).condition_report["flags"] == expected


def test_lcak_check_reads_a_decimal_probe_exactly(tmp_path):
    code, out = check_file(tmp_path, decimal_probe("A4_1", "1e-9", "1e-6"), "--json")
    report = json.loads(out)
    assert code == 0 and report["arithmetic_mode"] == "exact"
    assert report["condition_report"]["flags"] == (
        run_report(catalog_entry("A4_1")).condition_report["flags"])


@pytest.mark.parametrize("jraw", [{"preset": "split"}, 3, [1, 2, 3, 4], "rotated"])
def test_a_j_that_is_not_a_matrix_is_bad_field(jraw):
    spec = a41_spec()
    spec["J"] = jraw
    with pytest.raises(ParseError) as err:
        load_spec(spec)
    assert err.value.code == "BAD_FIELD" and err.value.field == "J"


def test_a_matrix_of_the_wrong_size_is_bad_dim():
    spec = a41_spec(g=[[1, 0], [0, 1]])
    with pytest.raises(ValidationError) as err:
        load_spec(spec)
    assert err.value.code == "BAD_DIM" and err.value.field == "g"


# -- the classification reads the file's tolerance -------------------------------------

# ad(e4) has trace 5e-8: unimodular in float mode at the file's tolerance 1e-6, not at
# 1e-9, and never read exactly
NEAR_A4_1 = {
    "dim": 4, "name": "near_A4_1",
    "brackets": [{"i": 4, "j": 1, "coefficients": {"3": 1}},
                 {"i": 4, "j": 2, "coefficients": {"1": 1, "2": 2.5e-8}},
                 {"i": 4, "j": 3, "coefficients": {"3": 2.5e-8}}],
    "J": "mirror", "g": "identity",
    "options": {"tolerance": 1e-6, "arithmetic_mode": "float"},
}


def test_classification_uses_the_file_tolerance(tmp_path):
    exact = dict(NEAR_A4_1, options={"tolerance": 1e-6})
    cls = run_report(load_spec(exact)).classification
    assert cls["label"] is None and cls["reason"] == "parameters are not unimodular"
    code, out = check_file(tmp_path, NEAR_A4_1, "--json")
    assert code == 0
    report = json.loads(out)
    flags = report["condition_report"]["flags"]
    assert flags["unimodular"] and flags["pluricanonical"]
    cls = report["classification"]
    assert cls["applicable"], cls.get("reason")
    assert cls["label"]["name"] == "A4_1"
    assert cls["label"]["invariants"]["jordan_type"] == "nilpotent_j3"
    assert cls["label"]["invariants"]["jordan_cross_check"]


# -- every structure reads its algebra's field ----------------------------------------

def _structures():
    a41 = catalog_entry("A4_1")
    exact_params = AlmostAbelianParams(2, 0, (1, 0), (0, 1), ((0, 0), (0, 0)))
    float_params = AlmostAbelianParams(2, 0.0, (1.0, 0.0), (0.0, 1.0), ((0.0, 0.0), (0.0, 0.0)))
    rational_p = [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 1, 1]]
    rng = np.random.default_rng(3)
    out = {f"catalog_{name}": catalog_entry(name) for name in CATALOG_NAMES}
    out.update({
        "spec_auto": load_spec(a41_spec()),
        "spec_exact": load_spec(a41_spec("exact")),
        "spec_float": load_spec(a41_spec("float")),
        "spec_mixed": load_spec(a41_spec(g=DECIMAL_G)),
        "spec_tol": load_spec(a41_spec(), tol=1e-6),
        "aa_exact": build_almost_abelian(exact_params)[1],
        "aa_float": build_almost_abelian(float_params)[1],
        "change_basis_rational": a41.change_basis(rational_p),
        "change_basis_float": a41.change_basis(np.array(rational_p, dtype=float)),
        "rescaled": a41.rescaled(3),
        "as_float": a41.as_float(),
        "fuzz_almost_abelian": build_almost_abelian(random_params_4d(rng))[1].as_float(),
        "fuzz_unimodular": AlmostHermitianStructure(random_unimodular_4d(rng),
                                                    *random_compatible_pair(rng, 4)),
        "fuzz_hermitian_4": random_hermitian_structure(rng, dim=4),
        "fuzz_hermitian_6": random_hermitian_structure(rng, dim=6),
        "fuzz_lcs_orthogonal": unimodular_lcs_orthogonal_sample(rng),
    })
    return out


def test_every_structure_uses_its_algebra_field():
    structures = _structures()
    assert [name for name, s in structures.items() if s.field is not s.alg.field] == []
    assert structures["spec_tol"].tol == 1e-6
    assert structures["change_basis_rational"].exact
    assert not structures["change_basis_float"].exact
    assert not structures["spec_float"].exact and structures["spec_mixed"].exact


def test_float_data_on_an_exact_algebra_is_refused():
    alg = LieAlgebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})
    with pytest.raises(TypeError):
        AlmostHermitianStructure(alg, preset_j("split", 4).astype(float))
    with pytest.raises(TypeError):
        AlmostHermitianStructure(alg, preset_j("split", 4), np.eye(4))
    s = AlmostHermitianStructure(alg.as_float(), preset_j("split", 4), np.eye(4))
    assert not s.exact
