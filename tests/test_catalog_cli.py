"""Catalog, spec files, reports and the command line.

The six golden reports in ``golden/`` are the ``lcak catalog NAME --json``
output of each catalog entry; one command regenerates each of them, from the
root of the repository:

    PYTHONPATH=src python -m lcak.cli catalog NAME --json > tests/golden/NAME.json
"""
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lcak.arith import Field
from lcak.catalogs import CATALOG_NAMES, catalog, catalog_entry
from lcak.cli import main
from lcak.errors import ParseError, ValidationError
from lcak.fuzzing import fuzz, summary_to_json
from lcak.specfile import Report, load_spec, run_report

GOLDEN = Path(__file__).parent / "golden"

A41_SPEC = """
{
  "dim": 4,
  "name": "A4_1",
  "brackets": [
    {"i": 2, "j": 4, "coefficients": {"1": "1"}},
    {"i": 3, "j": 4, "coefficients": {"2": "1"}}
  ],
  "J": "split",
  "g": "identity"
}
"""


def test_catalog_entries_all_validate():
    entries = catalog()
    assert set(entries) == set(CATALOG_NAMES)
    for name, s in entries.items():
        assert s.alg.validate().ok, name
        assert s.validation.ok, name
        assert s.exact, name


def test_catalog_expected_flags():
    from lcak.conditions import classify_metric
    rep = classify_metric(catalog_entry("A4_1"))
    assert rep.flags["pluricanonical"] and not rep.flags["vaisman"]
    from lcak import connection, arith
    s = catalog_entry("abelian_kahler")
    dth = connection.covariant_one_form(s, s.lee_form().theta)
    assert arith.max_abs(dth) == 0
    img = catalog_entry("A4_8").nijenhuis_image()
    assert len(img) == 2 and all(v[0] == 0 and v[3] == 0 for v in img)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_golden_reports_bit_for_bit(name):
    report = run_report(catalog_entry(name))
    expect = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report.to_json() == expect


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_report_round_trip(name):
    report = run_report(catalog_entry(name))
    text = report.to_json()
    again = Report.from_json(text)
    assert again.to_json() == text
    assert json.loads(text) == json.loads(again.to_json())


@pytest.mark.parametrize("schema", [None, 1, 3, "2"], ids=repr)
def test_report_from_json_reads_only_schema_2(schema):
    """A schema-1 report has no "schema" key and still holds entries that the
    schema-2 layout dropped; it is refused, like any other schema."""
    data = json.loads(run_report(catalog_entry("A4_1")).to_json())
    assert data["schema"] == 2
    if schema is None:
        del data["schema"]
    else:
        data["schema"] = schema
    with pytest.raises(ParseError) as err:
        Report.from_json(json.dumps(data))
    assert (err.value.code, err.value.field) == ("BAD_FIELD", "schema")


@pytest.mark.parametrize("missing", ["dim", "arithmetic_mode", "algebra_validation",
                                     "structure_validation", "condition_report",
                                     "equivalences", "classification"])
def test_report_from_json_names_a_missing_field(missing):
    data = json.loads(run_report(catalog_entry("A4_1")).to_json())
    del data[missing]
    with pytest.raises(ParseError) as err:
        Report.from_json(json.dumps(data))
    assert (err.value.code, err.value.field) == ("BAD_FIELD", missing)


def test_report_from_json_optional_fields_and_unknown_keys():
    data = json.loads(run_report(catalog_entry("A4_1"), feasibility=True).to_json())
    for key in ("name", "feasibility", "extras"):
        del data[key]
    rep = Report.from_json(json.dumps({**data, "unknown": 1}))
    assert (rep.name, rep.feasibility, rep.extras) == (None, None, {})
    assert json.loads(rep.to_json()) == {**data, "name": None}


@pytest.mark.parametrize("text", ["[]", '"x"', "{bad"])
def test_report_from_json_refuses_text_that_is_not_an_object(text):
    with pytest.raises(ParseError) as err:
        Report.from_json(text)
    assert err.value.code == "PARSE_ERROR"


def test_load_spec_a41_text():
    s = load_spec(A41_SPEC)
    assert s.exact and s.dim == 4
    report = run_report(s)
    assert report.condition_report["flags"]["pluricanonical"]


def test_load_spec_empty_brackets_identity_preset():
    s = load_spec({"dim": 4, "brackets": [], "J": "split", "g": "identity"})
    report = run_report(s)
    assert report.condition_report["flags"]["vaisman"]


def test_load_spec_j_not_acs():
    bad = {"dim": 4, "brackets": [],
           "J": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    with pytest.raises(ValidationError) as err:
        load_spec(bad)
    assert err.value.code == "J_NOT_ACS"


def test_load_spec_parse_errors():
    with pytest.raises(ParseError) as err:
        load_spec("{not json")
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(ValidationError) as err:
        load_spec({"dim": 3})
    assert err.value.code == "BAD_DIM"
    with pytest.raises(ValidationError) as err:
        load_spec({"dim": 4, "brackets": [{"i": 1, "j": 9,
                                           "coefficients": {"1": "1"}}]})
    assert err.value.code == "BAD_INDEX"
    with pytest.raises(ValidationError) as err:
        load_spec({"dim": 4, "brackets": [
            {"i": 1, "j": 2, "coefficients": {"3": "1"}},
            {"i": 2, "j": 3, "coefficients": {"1": "1"}},
            {"i": 1, "j": 3, "coefficients": {"1": "-1"}}]})
    assert err.value.code == "JACOBI_FAILED"


def test_load_spec_float_mode():
    data = json.loads(A41_SPEC)
    data["options"] = {"arithmetic_mode": "float", "tolerance": 1e-8}
    s = load_spec(data)
    assert not s.exact and s.tol == 1e-8


def _a41_with(**fields):
    data = json.loads(A41_SPEC)
    data.update(fields)
    return data


def test_load_spec_a_pair_listed_consistently_in_both_orders_counts_once():
    once = load_spec(A41_SPEC)
    data = _a41_with()
    data["brackets"].append({"i": 4, "j": 2, "coefficients": {"1": "-1"}})
    twice = load_spec(json.dumps(data))
    assert twice.alg.sparse_constants() == once.alg.sparse_constants()
    assert run_report(twice).to_json() == run_report(once).to_json()


# brackets -> the (code, field) of the input error each file raises
BAD_BRACKETS = {
    "reverse_pair_disagrees": ([{"i": 2, "j": 4, "coefficients": {"1": "1"}},
                                {"i": 4, "j": 2, "coefficients": {"1": "1"}}],
                               "BAD_FIELD", "brackets"),
    "same_pair_twice": ([{"i": 2, "j": 4, "coefficients": {"1": "1"}},
                         {"i": 2, "j": 4, "coefficients": {"1": "1"}}],
                        "BAD_FIELD", "brackets[1]"),
    "nonzero_self_bracket": ([{"i": 3, "j": 4, "coefficients": {"2": "1"}},
                              {"i": 2, "j": 2, "coefficients": {"1": "1"}}],
                             "BAD_INDEX", "brackets[1]"),
    "coefficients_not_a_map": ([{"i": 2, "j": 4, "coefficients": [1]}],
                               "BAD_FIELD", "brackets[0]"),
    "index_not_integral": ([{"i": 3, "j": 4, "coefficients": {"2": "1"}},
                            {"i": 2.7, "j": 4, "coefficients": {"1": "1"}}],
                           "BAD_FIELD", "brackets[1]"),
    "index_a_boolean": ([{"i": True, "j": 4, "coefficients": {"1": "1"}}],
                        "BAD_FIELD", "brackets[0]"),
    "index_not_finite": ([{"i": 2, "j": float("inf"), "coefficients": {"1": "1"}}],
                         "BAD_FIELD", "brackets[0]"),
}


def _assert_rejected(tmp_path, capsys, text, code, field):
    with pytest.raises((ParseError, ValidationError)) as err:
        load_spec(text)
    assert (err.value.code, err.value.field) == (code, field)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith(f"input error [{code}]")


@pytest.mark.parametrize("name", sorted(BAD_BRACKETS))
def test_load_spec_rejects_bad_brackets(tmp_path, capsys, name):
    brackets, code, field = BAD_BRACKETS[name]
    _assert_rejected(tmp_path, capsys, json.dumps(_a41_with(brackets=brackets)), code, field)


@pytest.mark.parametrize("raw", ["1e400", '"1e400"', '"-1e400"', "NaN", "true"])
@pytest.mark.parametrize("where", ["brackets", "J", "g"])
def test_load_spec_rejects_a_value_that_is_not_finite(tmp_path, capsys, where, raw):
    """The JSON number 1e400 parses as infinity; it, NaN and a boolean are no
    rational number, so each is an input error at its field, not a failed
    Jacobi or positivity check.  The string "1e400" is the finite 10**400: it
    loads exactly, and in J or g the structure checks judge it, by their codes."""
    split = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    eye = [[int(a == b) for b in range(4)] for a in range(4)]
    data = _a41_with(J=split, g=eye)
    if where == "brackets":
        data["brackets"][1]["coefficients"]["2"] = "BIG"
        field = "brackets[1]"
    else:
        data[where][0][0] = "BIG"
        field = where
    text = json.dumps(data).replace('"BIG"', raw)
    if not raw.startswith('"'):
        _assert_rejected(tmp_path, capsys, text, "BAD_FIELD", field)
    elif where == "brackets":
        s = load_spec(text)
        big = -10 ** 400 if "-" in raw else 10 ** 400
        assert s.exact and s.alg.sparse_constants()[(3, 4, 2)] == big
        as_int = load_spec(json.dumps(data).replace('"BIG"', str(big)))
        assert run_report(s).to_json() == run_report(as_int).to_json()
    else:
        code = {"J": "J_NOT_ACS", "g": "G_NOT_POSITIVE_DEFINITE" if "-" in raw
                else "G_NOT_J_INVARIANT"}[where]
        _assert_rejected(tmp_path, capsys, text, code, None)


BAD_TOLERANCES = (-1, -1e-12, 1, 2.5, math.nan, math.inf, -math.inf, "1e-9", "abc", None, True,
                  [1e-9])


def _float_a41(tol):
    data = json.loads(A41_SPEC)
    data["options"] = {"arithmetic_mode": "float", "tolerance": tol}
    return data


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_load_spec_rejects_a_bad_tolerance(tol):
    """A tolerance that is negative, at least 1, not finite or not a number is
    an input error, not a failed Jacobi or positivity check, whether it comes in a
    parsed dict, in JSON text or as the ``tol`` argument."""
    for data in (_float_a41(tol), json.dumps(_float_a41(tol))):
        with pytest.raises(ParseError) as err:
            load_spec(data)
        assert (err.value.code, err.value.field) == ("BAD_FIELD", "options.tolerance")
    if tol is not None:  # tol=None reads the file's tolerance
        with pytest.raises(ParseError) as err:
            load_spec(A41_SPEC, tol=tol)
        assert (err.value.code, err.value.field) == ("BAD_FIELD", "options.tolerance")


@pytest.mark.parametrize("tol", [0, 0.0, 1e-12, 1e-3])
def test_load_spec_accepts_a_finite_nonnegative_tolerance(tol):
    s = load_spec(_float_a41(tol))
    assert s.tol == tol and s.validation.ok
    assert load_spec(A41_SPEC, tol=tol).tol == tol


@pytest.mark.parametrize("arg", ["nan", "inf", "-inf", "-1", "-0.5", "1", "2.5"])
def test_cli_check_rejects_a_bad_tolerance(tmp_path, capsys, arg):
    path = tmp_path / "a41.json"
    path.write_text(A41_SPEC, encoding="utf-8")
    assert main(["check", str(path), f"--tol={arg}"], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("input error [BAD_FIELD]: tolerance")
    assert main(["check", str(path), "--tol=0"], out=io.StringIO()) == 0


def test_cli_check_exit_codes(tmp_path):
    path = tmp_path / "a41.json"
    path.write_text(A41_SPEC, encoding="utf-8")
    out = io.StringIO()
    assert main(["check", str(path)], out=out) == 0
    assert main(["check", str(path), "--expect", "pluricanonical=true"],
                out=io.StringIO()) == 0
    assert main(["check", str(path), "--expect", "vaisman=true"],
                out=io.StringIO()) == 1
    assert main(["check", str(tmp_path / "missing.json")],
                out=io.StringIO()) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 4, "J": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}',
                   encoding="utf-8")
    assert main(["check", str(bad)], out=io.StringIO()) == 2


@pytest.mark.parametrize("where", ["missing_file", "directory"])
def test_unreadable_path_is_io_error(tmp_path, capsys, where):
    path = tmp_path / "missing.json" if where == "missing_file" else tmp_path
    with pytest.raises(ParseError) as err:
        load_spec(str(path))
    assert err.value.code == "IO_ERROR"
    assert main(["check", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("input error [IO_ERROR]")


# A4_1 with a J for which the structure is not LCS, so not pluricanonical
NON_PLURICANONICAL_J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


@pytest.mark.parametrize("value, code", [
    ("false", 0), ("FALSE", 0), ("No", 0), ("0", 0), ("true", 1), ("Yes", 1), ("1", 1),
    ("ture", 2), ("", 2), ("maybe", 2)])
def test_cli_check_expect_takes_only_a_truth_value(tmp_path, capsys, value, code):
    """--expect FLAG=VALUE reads 1/0/true/false/yes/no in any case; a typo is an
    input error, not an expectation of False."""
    path = tmp_path / "not_pluricanonical.json"
    path.write_text(json.dumps(_a41_with(J=NON_PLURICANONICAL_J)), encoding="utf-8")
    assert main(["check", str(path), "--expect", f"pluricanonical={value}"],
                out=io.StringIO()) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("input error: --expect")


@pytest.mark.parametrize("name, line", [
    ("A4_1", "compatible-form search: infeasible (isotropic vector)"),
    ("abelian_kahler", "compatible-form search: feasible (witness)"),
])
def test_cli_feasibility_names_its_evidence(name, line):
    """Dim 4 has no optimum to print: the text names the witness or the kind of
    certificate."""
    out = io.StringIO()
    main(["catalog", name, "--feasibility"], out=out)
    assert line in out.getvalue().splitlines()


def test_cli_check_json_output(tmp_path):
    path = tmp_path / "a41.json"
    path.write_text(A41_SPEC, encoding="utf-8")
    out = io.StringIO()
    assert main(["check", str(path), "--json"], out=out) == 0
    data = json.loads(out.getvalue())
    assert data["condition_report"]["flags"]["pluricanonical"] is True
    assert data["extras"]["theta"] == {"3": "-1"}


def test_cli_catalog_listing_and_entry():
    out = io.StringIO()
    assert main(["catalog"], out=out) == 0
    assert set(out.getvalue().split()) == set(CATALOG_NAMES)
    out = io.StringIO()
    assert main(["catalog", "A4_8", "--json"], out=out) == 0
    data = json.loads(out.getvalue())
    assert data["extras"]["theta"] == {"4": "-1"}


def test_cli_classify_aa():
    out = io.StringIO()
    assert main(["classify-aa", "--a", "0", "--b", "1,0", "--v", "0,1",
                 "--A", "0,0;0,0", "--json"], out=out) == 0
    data = json.loads(out.getvalue())
    assert data["label"]["name"] == "A4_1"
    # precondition failure exits 1
    assert main(["classify-aa", "--a", "1", "--b", "1,0", "--v", "0,1",
                 "--A", "0,0;0,0"], out=io.StringIO()) == 1
    # decimals are the rationals they are written as: b.v = 0.21 - 0.21 is 0,
    # where binary64 leaves -2.8e-17
    out = io.StringIO()
    assert main(["classify-aa", "--a", "0.0", "--b", "0.7,0.1", "--v", "0.3,-2.1",
                 "--A", "0,0.0;0,0", "--json"], out=out) == 0
    label = json.loads(out.getvalue())["label"]
    assert label["name"] == "A4_1" and label["invariants"]["b_dot_v"] == 0.0


def test_readme_structure_files_load_and_report():
    """Every ```json block of README.md with a "dim" key is a structure file
    that load_spec reads and run_report reports on."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if "dim" in json.loads(b)]
    assert blocks
    for block in blocks:
        report = run_report(load_spec(block))
        assert report.algebra_validation["ok"] and report.structure_validation["ok"]


def test_cli_fuzz_deterministic():
    s1 = fuzz(0, 10, "almost_abelian_4d")
    s2 = fuzz(0, 10, "almost_abelian_4d")
    assert summary_to_json(s1) == summary_to_json(s2)
    assert s1["identity_failures"] == []


def test_cli_version_prints_conventions():
    out = io.StringIO()
    assert main(["--version"], out=out) == 0
    text = out.getvalue()
    assert "lcak" in text and "curvature" in text and "lee_normalization" in text


def test_cli_subprocess_entry_point(tmp_path):
    path = tmp_path / "a41.json"
    path.write_text(A41_SPEC, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "lcak.cli", "check", str(path),
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["condition_report"]["flags"]["is_lcs"] is True


def test_report_all_checks_pass_flag():
    rep = run_report(catalog_entry("A4_1"))
    assert rep.all_checks_pass


def test_equivalence_errors_are_reported_only_when_typed(monkeypatch):
    from lcak import conditions
    from lcak.errors import PreconditionFailed

    def raise_typed(*args, **kwargs):
        raise PreconditionFailed("planted")

    monkeypatch.setattr(conditions, "verify_equivalences", raise_typed)
    rep = run_report(catalog_entry("A4_1"))
    assert rep.equivalences == {"error": "planted", "all_consistent": False}
    assert not rep.all_checks_pass

    def raise_untyped(*args, **kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(conditions, "verify_equivalences", raise_untyped)
    with pytest.raises(ZeroDivisionError):
        run_report(catalog_entry("A4_1"))


def test_report_past_the_float_range_is_strict_json():
    """Residuals past the float range are written as "inf" strings, not as the
    bare Infinity that strict JSON parsers refuse."""
    data = _a41_with(brackets=[{"i": 2, "j": 4, "coefficients": {"1": "1e400"}},
                               {"i": 3, "j": 4, "coefficients": {"2": "1e400"}}])

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    text = run_report(load_spec(json.dumps(data))).to_json()
    residuals = json.loads(text, parse_constant=refuse)["condition_report"]["residuals"]
    assert "inf" in residuals.values()
    rep = Report(name="r", dim=4, arithmetic_mode="float", algebra_validation={},
                 structure_validation={}, condition_report={}, equivalences={},
                 classification={}, extras={"x": (math.inf, -math.inf, math.nan, 1.5),
                                             "y": np.array([math.inf, 0.5])})
    assert json.loads(rep.to_json(), parse_constant=refuse)["extras"] == {
        "x": ["inf", "-inf", "nan", 1.5], "y": ["inf", 0.5]}


@pytest.mark.parametrize("scale", [1, Fraction(1, 10 ** 6), 9], ids=["1", "1e-6", "9"])
@pytest.mark.parametrize("name", ["A4_1_aa", "A3_4_plus_A1", "A3_6_plus_A1"])
def test_almost_abelian_label_does_not_depend_on_the_metric_scale(name, scale):
    s = catalog_entry(name)
    want = run_report(s).classification
    got = run_report(s.rescaled(scale)).classification
    assert got["applicable"] and got["label"] == want["label"]
    assert got["params"] == want["params"]


def test_report_encoder_refuses_unknown_objects():
    rep = Report(name="r", dim=4, arithmetic_mode="exact", algebra_validation={},
                 structure_validation={}, condition_report={}, equivalences={},
                 classification={})
    rep.extras = {"x": (1, 2.5, None, Fraction(1, 2), np.int64(3), np.array([0.5, 1.0]))}
    assert json.loads(rep.to_json())["extras"] == {"x": [1, 2.5, None, "1/2", 3, [0.5, 1.0]]}
    rep.extras = {"x": object()}
    with pytest.raises(TypeError):
        rep.to_json()
    rep.extras = {"x": [Field(True).array([1, "1/2"])]}
    with pytest.raises(TypeError):  # an exact array never reaches a report as its repr
        rep.to_json()
