"""Command line interface.

Subcommands:

* ``check <file> [--json] [--tol T] [--exact|--float] [--feasibility]
  [--expect flag=value ...]`` -- run the full report on a structure file.
* ``catalog [name] [--json]`` -- list the built-in entries or report on one.
* ``classify-aa --a A --b "b1,b2" --v "v1,v2" --A "a11,a12;a21,a22"`` --
  classify a 4-dimensional almost abelian family member.
* ``fuzz --seed S --count N --family F [--json]`` -- run the identity fuzzer.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .almostabelian import AlmostAbelianParams, classify_4d, pluricanonical_conditions_aa
from .arith import parse_scalar
from .catalogs import CATALOG_NAMES, catalog_entry
from .conventions import CONVENTIONS
from .errors import Degenerate, LcakError, ParseError, PreconditionFailed, ValidationError
from .fuzzing import FAMILIES, fuzz, summary_to_json
from .specfile import Report, load_spec, run_report


def _print_report_text(report: Report, out):
    d = report.as_dict()
    print(f"structure : {report.name or '(unnamed)'}  dim={report.dim}  "
          f"mode={report.arithmetic_mode}", file=out)
    print(f"algebra   : ok={d['algebra_validation']['ok']} "
          f"jacobi={d['algebra_validation']['jacobi_residual']:.3e}", file=out)
    print(f"structure : ok={d['structure_validation']['ok']}", file=out)
    flags = d["condition_report"]["flags"]
    width = max(len(k) for k in flags)
    for key in sorted(flags):
        print(f"  {key:<{width}} : {flags[key]}", file=out)
    print(f"kind      : {d['condition_report']['kind']}", file=out)
    print(f"theta     : {d['extras']['theta']}", file=out)
    eq = d["equivalences"]
    print(f"equivalences consistent: {eq.get('all_consistent')}", file=out)
    cls = d["classification"]
    if cls.get("applicable"):
        print(f"class     : {cls['label']['name']}", file=out)
    if report.feasibility is not None:
        f, cert = d["feasibility"], d["feasibility"]["certificate"]
        how = (f"optimum {f['optimum']}" if f["optimum"] is not None
               else "witness" if f["witness"] else "isotropic vector"
               if isinstance(cert, list) else cert)
        print(f"compatible-form search: {f['status']} ({how})", file=out)
    for w in d["condition_report"]["warnings"]:
        print(f"WARNING: {w}", file=out)


EXPECT_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_expectations(pairs):
    out = {}
    for item in pairs or []:
        key, _, val = item.partition("=")
        val = val.strip().lower()
        if val not in EXPECT_VALUES:
            raise ValueError(f"--expect needs flag={'/'.join(EXPECT_VALUES)}, got {item!r}")
        out[key.strip()] = EXPECT_VALUES[val]
    return out


def cmd_check(args, out):
    expectations = _parse_expectations(args.expect)
    structure = load_spec(args.file, tol=args.tol)
    if args.mode == "float":
        structure = structure.as_float()
    elif args.mode == "exact" and not structure.exact:
        raise ValidationError('the file asks for arithmetic_mode "float", cannot run --exact',
                              code="BAD_FIELD")
    report = _write_report(structure, args, out)
    ok = report.all_checks_pass
    flags = report.condition_report["flags"]
    for key, val in expectations.items():
        if key not in flags:
            raise ValidationError(f"unknown flag {key!r} in --expect", code="BAD_FIELD")
        if flags[key] != val:
            print(f"EXPECT FAILED: {key} = {flags[key]}, expected {val}",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_catalog(args, out):
    if not args.name:
        for name in CATALOG_NAMES:
            print(name, file=out)
        return 0
    if args.name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog entry {args.name!r}; have {', '.join(CATALOG_NAMES)}")
    report = _write_report(catalog_entry(args.name), args, out)
    return 0 if report.all_checks_pass else 1


def _write_report(structure, args, out):
    """The report on ``structure``, written to ``out`` as JSON (``--json``) or text."""
    report = run_report(structure, feasibility=args.feasibility)
    if args.json:
        out.write(report.to_json())
    else:
        _print_report_text(report, out)
    return report


def _parse_vector(text):
    return tuple(parse_scalar(x) for x in text.split(","))


def _parse_matrix(text):
    return tuple(tuple(parse_scalar(x) for x in row.split(","))
                 for row in text.split(";"))


def cmd_classify_aa(args, out):
    params = AlmostAbelianParams(2, parse_scalar(args.a),
                                 _parse_vector(args.b), _parse_vector(args.v),
                                 _parse_matrix(args.A))
    # the condition systems are derived on the unimodular locus a + tr A = 0
    conds = pluricanonical_conditions_aa(params) if params.a + params.trace_a() == 0 else None
    result = {"conditions": conds}
    try:
        label = classify_4d(params)
        result["label"] = label.as_dict()
        code = 0
    except (PreconditionFailed, Degenerate) as e:
        result["label"] = None
        result["reason"] = str(e)
        code = 1
    if args.json:
        out.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    else:
        if result["label"]:
            print(f"label: {result['label']['name']}", file=out)
            print(f"invariants: {result['label']['invariants']}", file=out)
        else:
            print(f"not classifiable: {result['reason']}", file=out)
        if conds is not None:
            print(f"condition residual: {conds['max_residual']:.3e}", file=out)
    return code


def cmd_fuzz(args, out):
    summary = fuzz(args.seed, args.count, args.family)
    if args.json:
        out.write(summary_to_json(summary))
    else:
        print(f"family={summary['family']} seed={summary['seed']} "
              f"samples={summary['samples']}", file=out)
        for name, worst in summary["worst_residuals"].items():
            print(f"  {name:<28} worst {worst:.3e}", file=out)
        print(f"failures: {len(summary['identity_failures'])}", file=out)
    return 0 if not summary["identity_failures"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcak",
        description="Invariant almost-Hermitian calculus on Lie algebras")
    parser.add_argument("--version", action="store_true",
                        help="print version and conventions")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="run the report on a structure file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--feasibility", action="store_true",
                   help="include the compatible-form search")
    p.add_argument("--expect", action="append", metavar="FLAG=BOOL",
                   help="fail unless the named flag has the given value")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode", action="store_const", const="exact")
    group.add_argument("--float", dest="mode", action="store_const", const="float")
    p.set_defaults(mode="auto", func=cmd_check)

    p = sub.add_parser("catalog", help="list or report built-in structures")
    p.add_argument("name", nargs="?")
    p.add_argument("--json", action="store_true")
    p.add_argument("--feasibility", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("classify-aa", help="classify an almost abelian 4d family")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True, help='comma separated, e.g. "1,0"')
    p.add_argument("--v", required=True)
    p.add_argument("--A", required=True, help='rows joined by ";", e.g. "0,0;0,0"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify_aa)

    p = sub.add_parser("fuzz", help="identity fuzzing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--family", choices=FAMILIES, default="random_hermitian")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(f"lcak {__version__}", file=out)
        for key in sorted(CONVENTIONS):
            print(f"  {key}: {CONVENTIONS[key]}", file=out)
        return 0
    if not args.command:
        parser.print_help(out)
        return 2
    try:
        return args.func(args, out)
    except (ParseError, ValidationError) as e:
        code = getattr(e, "code", "ERROR")
        print(f"input error [{code}]: {e}", file=sys.stderr)
        return 2
    except LcakError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
