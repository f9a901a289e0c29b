"""Command-line surface.

Exit codes: 0 = pass/success, 1 = axiom or verification failure (the
witnesses are printed), 2 = usage error (``{"error": "usage"}``, with
the usage text on standard error), validation error, or an internal
error (a defect, reported as ``{"error": "internal"}``).  With --json the
output is a single JSON document on every path; identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import ordu, rivals, risk, social, timepref
from .choices import DATED_PAYMENT, INCOME_SPLIT, LOTTERY, linkage_report
from .choices import warp_over  # noqa: F401  bench/tracing.py wraps it here
from .engine import ReferenceDependenceFailure
from .engine import check_reference_dependence  # noqa: F401  bench/tracing.py wraps it here
from .exceptions import AxiomFails, InfeasibleFit, RefdepError, ValidationError
from .ordu import OrduParams, build_ordu, simulate_ordu, verify_ordu
from .risk import AreuParams, fit_areu, simulate_areu, verify_areu
from .serialize import (
    dataset_to_dict,
    load_dataset,
    menus_from_dict,
    read_json,
    to_json,
)
from .social import FspuParams, fit_fspu, simulate_fspu, verify_fspu
from .timepref import PbduParams, fit_pbdu, simulate_pbdu, verify_pbdu

PARTIAL_DATA_NOTE = (
    "verdicts quantify over observed menus only; unobserved menus could "
    "still reveal violations")


def _witness_doc(witness):
    if isinstance(witness, ReferenceDependenceFailure):
        return {
            "kind": "reference-dependence",
            "menu": sorted(witness.menu),
            "candidates": {x: [_witness_doc(w) for w in ws]
                           for x, ws in witness.per_candidate},
        }
    return {
        "kind": witness.kind,
        "menus": [sorted(m) for m in witness.menus],
        "narrative": witness.narrative,
    }


def _verdict(witnesses):
    return {"pass": not witnesses,
            "witnesses": [_witness_doc(w) for w in witnesses]}


_MODEL_KINDS = {"areu": LOTTERY, "pbdu": DATED_PAYMENT, "fspu": INCOME_SPLIT}


def _load(path_or_uri, model=None):
    """The dataset at a path or fixtures:// URI.  With ``model``, a
    dataset of another kind than the model reads is a ValidationError."""
    if path_or_uri.startswith("fixtures://"):
        ds = rivals.load_fixture(path_or_uri[len("fixtures://"):])
    else:
        ds = load_dataset(path_or_uri)
    _check_kind(model, ds.kind, "dataset")
    return ds


def _check_kind(model, kind, what):
    want = _MODEL_KINDS.get(model)
    if want is not None and kind != want:
        raise ValidationError(f"--model {model} needs a {want} {what}, got {kind}")


_BATTERIES = {"ordu": ordu.battery, "areu": risk.battery,
              "pbdu": timepref.battery, "fspu": social.battery}

_LINKAGE_REPORTS = {LOTTERY: risk.linkage_report_risk,
                    DATED_PAYMENT: timepref.linkage_report_time,
                    INCOME_SPLIT: social.linkage_report_social}

_FITTERS = {
    "ordu": (build_ordu, OrduParams),
    "areu": (fit_areu, AreuParams),
    "pbdu": (fit_pbdu, PbduParams),
    "fspu": (fit_fspu, FspuParams),
}


def _emit(doc, args, code):
    if args.json:
        sys.stdout.write(to_json(doc))
    else:
        sys.stdout.write(_render(doc) + "\n")
    return code


def _render(doc, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value if value != [] else '[]'}")
        return "\n".join(lines)
    return "\n".join(_render(item, indent) if isinstance(item, (dict, list))
                     else f"{pad}- {item}" for item in doc)


def cmd_validate(args):
    ds = _load(args.dataset)
    doc = {"ok": True, "kind": ds.kind,
           "alternatives": len(ds.alternatives),
           "observations": len(ds.observations)}
    return _emit(doc, args, 0)


def cmd_check(args):
    ds = _load(args.dataset, args.model)
    results = {key: _verdict(ws) for key, _, ws in _BATTERIES[args.model](ds)}
    ok = all(r["pass"] for r in results.values())
    doc = {"model": args.model, "pass": ok, "results": results,
           "note": PARTIAL_DATA_NOTE}
    return _emit(doc, args, 0 if ok else 1)


def cmd_fit(args):
    ds = _load(args.dataset)
    fitter, _ = _FITTERS[args.model]
    try:
        params = fitter(ds)
    except AxiomFails as exc:
        doc = {"model": args.model, "fit": "axiom_fails", "axiom": exc.axiom,
               "witnesses": [_witness_doc(w) for w in exc.witnesses]}
        return _emit(doc, args, 1)
    except InfeasibleFit as exc:
        doc = {"model": args.model, "fit": "infeasible", "detail": exc.detail}
        return _emit(doc, args, 1)
    payload = params.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(payload))
        doc = {"model": args.model, "fit": "ok", "params_path": args.out}
    else:
        doc = {"model": args.model, "fit": "ok", "params": payload}
    return _emit(doc, args, 0)


def _load_params(model, path):
    with open(path) as fh:
        doc = read_json(fh)
    try:
        return _FITTERS[model][1].from_json(doc)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(f"malformed {model} params document: {exc}") from exc


def cmd_simulate(args):
    params = _load_params(args.model, args.params)
    with open(args.menus) as fh:
        kind, alternatives, menus, floor = menus_from_dict(read_json(fh))
    _check_kind(args.model, kind, "menus file")
    if args.model == "ordu":
        ds = simulate_ordu(params, menus)
    elif args.model == "areu":
        risk.check_lotteries(params, alternatives.values())
        ds = simulate_areu(params, menus)
    elif args.model == "pbdu":
        ds = simulate_pbdu(params, alternatives.values(), menus)
    else:
        ds = simulate_fspu(params, alternatives.values(), menus, floor)
    doc = dataset_to_dict(ds)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(doc))
        return _emit({"simulate": "ok", "dataset_path": args.out}, args, 0)
    return _emit(doc, args, 0)


def cmd_verify(args):
    params = _load_params(args.model, args.params)
    ds = _load(args.dataset, args.model)
    verifier = {"ordu": verify_ordu, "areu": verify_areu,
                "pbdu": verify_pbdu, "fspu": verify_fspu}[args.model]
    mismatches = verifier(params, ds)
    doc = {
        "model": args.model,
        "pass": not mismatches,
        "mismatches": [{"menu": sorted(menu), "predicted": sorted(predicted),
                        "observed": sorted(observed)}
                       for menu, predicted, observed in mismatches],
    }
    return _emit(doc, args, 0 if not mismatches else 1)


def cmd_report(args):
    ds = _load(args.dataset)
    linkage = _LINKAGE_REPORTS.get(ds.kind, linkage_report)(ds)
    results = {name: _verdict(ws) for name, ws in linkage.items()}
    ok = all(r["pass"] for r in results.values())
    doc = {"kind": ds.kind, "pass": ok, "linkage": results,
           "note": PARTIAL_DATA_NOTE}
    return _emit(doc, args, 0 if ok else 1)


def cmd_fixtures(args):
    if args.action == "list":
        return _emit({"fixtures": rivals.fixture_names()}, args, 0)
    name = args.name
    if name is None:
        raise ValidationError("fixtures run needs a fixture name")
    rivals.load_fixture(name)  # UnknownFixture for a name with no table
    report = rivals.separation_suite()[name]
    doc = {"fixture": name, **{k: v for k, v in report.items()}}
    return _emit(doc, args, 0 if report["matches"] else 1)


def cmd_export_triangle(args):
    params = _load_params("areu", args.params)
    rows = risk.triangle_rows(params, params.prizes, args.resolution)
    lines = ["p_b,p_w,reference_id,utility_level"]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        return _emit({"export": "ok", "rows": len(rows), "path": args.out}, args, 0)
    if args.json:
        return _emit({"export": "ok", "rows": len(rows), "csv": text}, args, 0)
    sys.stdout.write(text)
    return 0


class _UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Hands usage errors to ``main`` instead of exiting, so that under
    --json they too end in a JSON document.  Subparsers share the class."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser():
    parser = _Parser(
        prog="refdep",
        description="Axiom tests, fitting, and simulation for reference-"
                    "dependent choice datasets")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (the stable contract)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a dataset file")
    p.add_argument("dataset")

    p = sub.add_parser("check", help="run a model's axiom battery")
    p.add_argument("--model", required=True, choices=sorted(_BATTERIES))
    p.add_argument("dataset")

    p = sub.add_parser("fit", help="fit model parameters to a dataset")
    p.add_argument("--model", required=True, choices=sorted(_FITTERS))
    p.add_argument("--out", default=None)
    p.add_argument("dataset")

    p = sub.add_parser("simulate", help="expand menus through fitted parameters")
    p.add_argument("--model", required=True, choices=sorted(_FITTERS))
    p.add_argument("--out", default=None)
    p.add_argument("params")
    p.add_argument("menus")

    p = sub.add_parser("verify", help="compare parameters against a dataset")
    p.add_argument("--model", required=True, choices=sorted(_FITTERS))
    p.add_argument("params")
    p.add_argument("dataset")

    p = sub.add_parser("report", help="global WARP / structural linkage report")
    p.add_argument("dataset")

    p = sub.add_parser("fixtures", help="list or run the built-in tables")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?", default=None)

    p = sub.add_parser("export-triangle",
                       help="sample a fitted lottery model on the probability "
                            "triangle and write CSV")
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("params")
    return parser


@functools.cache
def _parser():
    """The parser, built on the first ``main`` call of the process."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:  # argparse's own report, plus JSON under --json
        exc.parser.print_usage(sys.stderr)
        if "--json" in argv:
            sys.stdout.write(to_json({"error": "usage",
                                      "detail": f"{exc.parser.prog}: {exc}"}))
        else:
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return 2
    # looked up per call, so a replaced handler takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValidationError, OSError) as exc:
        return _fail(args, "validation", str(exc))
    except RefdepError as exc:
        return _fail(args, type(exc).__name__, str(exc))
    except Exception as exc:  # a defect: keep the exit-code and JSON contract
        traceback.print_exc()
        return _fail(args, "internal", f"{type(exc).__name__}: {exc}", "internal: ")


def _fail(args, error, detail, prefix=""):
    """Exit 2 with ``{"error": error, "detail": detail}`` under --json,
    else with ``error: <prefix><detail>`` on standard error."""
    if args.json:
        sys.stdout.write(to_json({"error": error, "detail": detail}))
    else:
        sys.stderr.write(f"error: {prefix}{detail}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
