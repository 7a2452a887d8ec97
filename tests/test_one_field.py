"""The algebra's field is the only arithmetic context.

A spec file's arithmetic mode and tolerance are decided once, in
``load_spec``, and every structure reads its algebra's field: the mode and
the tolerance of a decision cannot depend on which module made it.
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


def check_file(tmp_path, spec, *args):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = io.StringIO()
    return main(["check", str(path), *args], out=out), out.getvalue()


# -- "exact" with a decimal anywhere is BAD_FIELD -------------------------------------

@pytest.mark.parametrize("spec", [a41_spec("exact", bracket=0.5),
                                  a41_spec("exact", g=DECIMAL_G)],
                         ids=["decimal_bracket", "decimal_g"])
def test_exact_mode_with_a_decimal_is_bad_field(spec, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        load_spec(spec)
    assert err.value.code == "BAD_FIELD"
    assert err.value.field == "options.arithmetic_mode"
    code, out = check_file(tmp_path, spec)
    assert code == 2 and out == ""
    assert "[BAD_FIELD]" in capsys.readouterr().err


def test_auto_mode_decides_over_every_value(tmp_path):
    spec = a41_spec(g=DECIMAL_G)
    s = load_spec(spec)
    assert not s.exact and not s.alg.exact
    assert run_report(s).arithmetic_mode == "float"
    code, out = check_file(tmp_path, spec, "--json")
    assert code == 0 and json.loads(out)["arithmetic_mode"] == "float"
    assert load_spec(a41_spec()).exact


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

# ad(e4) has trace 5e-8: unimodular at the file's tolerance 1e-6, not at 1e-9
NEAR_A4_1 = {
    "dim": 4, "name": "near_A4_1",
    "brackets": [{"i": 4, "j": 1, "coefficients": {"3": 1}},
                 {"i": 4, "j": 2, "coefficients": {"1": 1, "2": 2.5e-8}},
                 {"i": 4, "j": 3, "coefficients": {"3": 2.5e-8}}],
    "J": "mirror", "g": "identity",
    "options": {"tolerance": 1e-6},
}


def test_classification_uses_the_file_tolerance(tmp_path):
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
    assert not structures["spec_float"].exact and not structures["spec_mixed"].exact


def test_float_data_on_an_exact_algebra_is_refused():
    alg = LieAlgebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})
    with pytest.raises(TypeError):
        AlmostHermitianStructure(alg, preset_j("split", 4).astype(float))
    with pytest.raises(TypeError):
        AlmostHermitianStructure(alg, preset_j("split", 4), np.eye(4))
    s = AlmostHermitianStructure(alg.as_float(), preset_j("split", 4), np.eye(4))
    assert not s.exact
