"""Structure-description files and deterministic reports.

A structure file is UTF-8 JSON:

    {
      "dim": 4,
      "brackets": [{"i": 2, "j": 4, "coefficients": {"1": "1"}}, ...],
      "J": [[...], ...]  |  "split"  |  "mirror",
      "g": [[...], ...]  |  "identity",
      "options": {"tolerance": 1e-9, "arithmetic_mode": "exact" | "float" | "auto"}
    }

Each bracket entry gives ``[e_i, e_j] = sum_k coefficients[k] e_k``, under
the rule of :class:`~lcak.algebra.LieAlgebra`: a pair may be listed in one
order or in both, and in both its two brackets must be negatives of each
other (else ``BAD_FIELD`` on ``brackets``) and count once.  A pair listed
twice in the same order is ``BAD_FIELD`` and a nonzero ``[e_i, e_i]`` is
``BAD_INDEX``, each at its ``brackets[pos]``.  ``options`` that is not an
object, or ``brackets`` not a list, is ``BAD_FIELD`` (null means absent).

Every bracket, J and g value is the rational it is written as
(:func:`~lcak.arith.parse_scalar`): "1/4", "0.25" and the JSON number 0.25
are all 1/4, and the string "1e400" is 10**400.  A boolean, or a JSON number
that is not finite (1e400 parses as infinity), is ``BAD_FIELD`` at its field.
The algebra is built exact unless the file asks for "float" ("auto", the
default, and "exact" mean the same), with the file's tolerance (or ``tol``),
and the structure uses the algebra's field.

Reports serialize with sorted keys and exact values as fraction strings, so
byte-identical golden files are meaningful.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import arith, conditions
from .algebra import LieAlgebra
from .almostabelian import AlmostAbelianParams, classify_4d
from .arith import DEFAULT_TOL
from .errors import (Degenerate, LcakError, ParseError, PreconditionFailed,
                     UnsupportedDimension, ValidationError)
from .hermitian import AlmostHermitianStructure, preset_j

J_PRESETS = ("split", "mirror")
SCHEMA = 2  # the report layout; schema 1 had no "schema" key


def _parse_value(raw, field_name):
    """The rational ``raw`` is written as; anything else is ``BAD_FIELD``."""
    try:
        return arith.parse_scalar(raw)
    except (ValueError, TypeError) as e:
        raise ParseError(f"bad scalar {raw!r} in {field_name}", code="BAD_FIELD",
                         field=field_name) from e


def _index(raw):
    """An integer index; a bool or a float with a fraction (2.7, inf) is a ValueError."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"index {raw!r} is not an integer")
    return int(raw)


def _matrix(raw, name, dim):
    """A dim x dim matrix of parsed scalars from a list of rows."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ParseError(f"{name} must be a list of rows", code="BAD_FIELD", field=name)
    m = [[_parse_value(v, name) for v in row] for row in raw]
    if len(m) != dim or any(len(row) != dim for row in m):
        raise ValidationError(f"{name} must be dim x dim", code="BAD_DIM", field=name)
    return m


def _json_object(text):
    """``text`` parsed as a JSON object; anything else is ``PARSE_ERROR``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e.msg}", code="PARSE_ERROR", line=e.lineno) from e
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", code="PARSE_ERROR")
    return data


def load_spec(source, tol=None) -> AlmostHermitianStructure:
    """Parse a structure file (path, text, or parsed dict) into a validated
    structure.  Raises ParseError / ValidationError with machine codes."""
    data = source
    if not isinstance(source, dict):
        text = source
        named = isinstance(source, str) and "\n" not in source and source.lstrip()[:1] != "{"
        if named or hasattr(source, "__fspath__"):  # a file named by a str or an os.PathLike
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise ParseError(f"cannot read {source}: {e}", code="IO_ERROR") from e
        data = _json_object(text)

    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 2 or dim % 2:
        raise ValidationError(f"dim must be a positive even integer, got {dim!r}",
                              code="BAD_DIM", field="dim")
    for name, kind in (("options", dict), ("brackets", list)):
        if data.get(name) is not None and not isinstance(data[name], kind):
            raise ParseError(f"{name} must be a JSON {'object' if kind is dict else 'array'}",
                             code="BAD_FIELD", field=name)
    options = data.get("options") or {}
    mode = options.get("arithmetic_mode", "auto")
    if mode not in ("auto", "exact", "float"):
        raise ParseError(f"arithmetic_mode {mode!r} invalid", code="BAD_FIELD",
                         field="options.arithmetic_mode")
    tol = options.get("tolerance", DEFAULT_TOL) if tol is None else tol
    # from tol = 1 on, no metric passes lambda_min > tol * max(1, lambda_max)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < 1:
        raise ParseError(f"tolerance must be a number in [0, 1), got {tol!r}",
                         code="BAD_FIELD", field="options.tolerance")

    brackets = {}
    for pos, item in enumerate(data.get("brackets") or []):
        where = f"brackets[{pos}]"
        try:
            i, j = _index(item["i"]), _index(item["j"])
            comps = {_index(k): _parse_value(v, where) for k, v in item["coefficients"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise ParseError(f"{where} must be {{i, j, coefficients}}",
                             code="BAD_FIELD", field=where) from e
        if not (1 <= i <= dim and 1 <= j <= dim and
                all(1 <= k <= dim for k in comps)):
            raise ValidationError(f"{where} indices outside 1..{dim}",
                                  code="BAD_INDEX", field=where)
        if i == j and any(v != 0 for v in comps.values()):
            raise ValidationError(f"{where}: [e_{i}, e_{i}] must vanish",
                                  code="BAD_INDEX", field=where)
        if (i, j) in brackets:
            raise ParseError(f"{where} repeats the pair ({i}, {j})",
                             code="BAD_FIELD", field=where)
        brackets[(i, j)] = comps

    jraw = data.get("J", "split")
    if isinstance(jraw, str):
        if jraw not in J_PRESETS:
            raise ParseError(f"unknown J preset {jraw!r}; have {J_PRESETS}",
                             code="BAD_FIELD", field="J")
        jmat = preset_j(jraw, dim).tolist()
    else:
        jmat = _matrix(jraw, "J", dim)
    graw = data.get("g", "identity")
    if graw == "identity":
        gmat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    else:
        gmat = _matrix(graw, "g", dim)

    alg = LieAlgebra(dim, brackets, exact=mode != "float", tol=tol)
    if not alg.antisymmetry_ok:
        raise ValidationError("a pair listed in both orders has brackets that are not "
                              "negatives of each other", code="BAD_FIELD", field="brackets")
    algrep = alg.validate()
    if not algrep.ok:
        raise ValidationError(
            f"Jacobi identity fails, residual {algrep.jacobi_residual}",
            code="JACOBI_FAILED", field="brackets")
    return AlmostHermitianStructure(alg, np.array(jmat, dtype=object),
                                    np.array(gmat, dtype=object), name=data.get("name"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Everything the checkers decided about one structure."""
    name: str
    dim: int
    arithmetic_mode: str
    algebra_validation: dict
    structure_validation: dict
    condition_report: dict
    equivalences: dict
    classification: dict
    feasibility: dict = None
    extras: dict = field(default_factory=dict)

    def as_dict(self):
        """The schema, then every field but one that holds its default."""
        out = {"schema": SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if value != default:
                out[f.name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(_json_value(self.as_dict()), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    @property
    def all_checks_pass(self) -> bool:
        return (self.algebra_validation["ok"]
                and self.structure_validation["ok"]
                and not self.condition_report["warnings"]
                and self.equivalences.get("all_consistent", True))

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """Unknown keys are ignored; a missing field without a default, but
        ``name``, is ``BAD_FIELD`` at that field; text that is not a JSON object
        is ``PARSE_ERROR``."""
        data = _json_object(text)
        if data.get("schema") != SCHEMA:
            raise ParseError(f"report schema must be {SCHEMA}", code="BAD_FIELD", field="schema")
        for f in fields(cls):
            required = f.name != "name" and f.default is f.default_factory is MISSING
            if required and f.name not in data:
                raise ParseError(f"report has no {f.name}", code="BAD_FIELD", field=f.name)
        return cls(**{"name": None,
                      **{f.name: data[f.name] for f in fields(cls) if f.name in data}})


def _json_value(obj):
    """``obj`` in plain JSON values: an exact scalar as its fraction string, numpy
    as plain Python, a float that is not finite as "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_value(v) for v in obj]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    if isinstance(obj, (str, int)) or obj is None or isinstance(obj, float) and abs(obj) < np.inf:
        return obj
    if isinstance(obj, (Fraction, float)):
        return str(obj)
    raise TypeError(f"cannot encode a {type(obj).__name__} in a report")


def _form_dict(form):
    return {"".join(str(i + 1) for i in key): arith.format_scalar(val)
            for key, val in sorted(form.coeffs.items())}


def run_report(structure: AlmostHermitianStructure, feasibility: bool = False) -> Report:
    """validation -> Lee form -> connection -> checkers -> classification."""
    rep = conditions.classify_metric(structure)
    try:
        eq = conditions.verify_equivalences(structure, report=rep)
    except LcakError as e:  # equivalences are reporting, never fatal
        eq = {"error": str(e), "all_consistent": False}
    classification = {"applicable": False}
    params = AlmostAbelianParams.of(structure) if structure.dim == 4 else None
    if params is not None:
        classification["almost_abelian"] = True
        classification["params"] = {
            "a": arith.format_scalar(params.a),
            "b": [arith.format_scalar(x) for x in params.b],
            "v": [arith.format_scalar(x) for x in params.v],
            "A": [[arith.format_scalar(x) for x in row] for row in params.A],
        }
        try:
            label = classify_4d(params, tol=structure.tol)
            classification["applicable"] = True
            classification["label"] = label.as_dict()
        except (PreconditionFailed, Degenerate, UnsupportedDimension) as e:
            classification["label"] = None
            classification["reason"] = str(e)
    extras = {
        "theta": _form_dict(structure.lee_form().theta),
        "fundamental_form": _form_dict(structure.F),
    }
    feas = None
    if feasibility:
        feas = conditions.symplectic_feasibility(structure)
        if feas.get("witness") is not None:
            feas = dict(feas)
            feas["witness"] = _form_dict(feas["witness"])
    return Report(
        name=structure.name,
        dim=structure.dim,
        arithmetic_mode="exact" if structure.exact else "float",
        algebra_validation=structure.alg.validate().as_dict(),
        structure_validation=structure.validation.as_dict(),
        condition_report=rep.as_dict(),
        equivalences=eq,
        classification=classification,
        feasibility=feas,
        extras=extras,
    )
