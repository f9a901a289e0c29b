"""Byte identity of the CLI and the demos against a recorded baseline.

``golden.json`` holds, for every command below, its exit code and the
SHA-256 of its standard output and standard error, once with --json and
once in text mode, and for every demo the SHA-256 of its standard
output.  A refactor must leave all of them unchanged; a failure names
the command whose output moved.  After an intended change of output,
re-record the baseline with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from refdep import choices, social, timepref
from refdep.cli import main
from refdep.rivals import fixture_names
from refdep.serialize import dataset_to_dict, to_json

from helpers import (
    areu_data,
    fractional_fspu_data,
    fractional_pbdu_data,
    fspu_data,
    integer_areu_data,
    integer_fspu_data,
    integer_pbdu_data,
    large_ordu_data,
    ordu_data,
    pay,
    payment_dataset,
    pbdu_data,
    perturbed,
    split,
    split_dataset,
    tie_rich,
    with_fractional_shift_witness,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
MODELS = ("ordu", "areu", "pbdu", "fspu")
SEEDED = {"ordu": ordu_data, "areu": areu_data, "pbdu": pbdu_data, "fspu": fspu_data}
# (model, label, draw, seeds) of the tie-rich datasets
TIED = (("pbdu", "pbdu", integer_pbdu_data, range(12)),
        ("fspu", "fspu", integer_fspu_data, range(12)),
        ("areu", "areu3", lambda rng: integer_areu_data(rng, 3), range(3)),
        ("areu", "areu4", lambda rng: integer_areu_data(rng, 4), range(3)))
# (model, draw, battery, witness kind) of the datasets with fractional payloads
FRACTIONAL = (("pbdu", fractional_pbdu_data, timepref.battery, "Stationarity"),
              ("fspu", fractional_fspu_data, social.battery, "Quasi-linearity"))
# one --json command per model, replayed under two hash seeds
RUN_CLI = "import sys; from refdep.cli import main; sys.exit(main(sys.argv[1:]))"
HASH_SEEDED = ("check ordu perturbed", "fit areu clean",
               "check pbdu fractional 0 witnessed", "fit fspu fractional 0 clean")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def _fixture_commands():
    yield "fixtures list", ["fixtures", "list"]
    for name in fixture_names():
        uri = f"fixtures://{name}"
        yield f"fixtures run {name}", ["fixtures", "run", name]
        yield f"validate {name}", ["validate", uri]
        yield f"report {name}", ["report", uri]
        # the other models reject a generic dataset; one fixture shows how
        for model in MODELS if name == "compliance_2_1" else ("ordu",):
            yield f"check {model} {name}", ["check", "--model", model, uri]
            yield f"fit {model} {name}", ["fit", "--model", model, uri]


def _seeded_commands(work):
    """check, fit, simulate, verify and report on one seeded dataset per
    model and on a perturbed copy; verify and simulate use the
    parameters fitted to the clean dataset."""
    for model, make in SEEDED.items():
        clean = make(random.Random(1))
        datasets = {"clean": clean, "perturbed": perturbed(random.Random(2), clean)}
        params = work / f"{model}-params.json"
        menus = work / f"{model}-menus.json"
        doc = dataset_to_dict(clean)
        menus.write_text(to_json({**{k: v for k, v in doc.items() if k != "observations"},
                                  "menus": [obs["menu"] for obs in doc["observations"]]}))
        for label, ds in datasets.items():
            data = work / f"{model}-{label}.json"
            data.write_text(to_json(dataset_to_dict(ds)))
            data = str(data)
            if label == "clean":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["fit", "--model", model, "--out", str(params), data]) == 0
                yield f"simulate {model}", ["simulate", "--model", model, str(params),
                                            str(menus)]
            for command in ("check", "fit"):
                yield f"{command} {model} {label}", [command, "--model", model, data]
            yield f"verify {model} {label}", ["verify", "--model", model, str(params), data]
            yield f"report {model} {label}", ["report", data]


def _tied_commands(work):
    """fit and verify on seeded datasets with a menu holding two or more
    chosen members and an unchosen one; each of them fits."""
    for model, label, draw, seeds in TIED:
        for seed in seeds:
            data = work / f"tied-{label}-{seed}.json"
            data.write_text(to_json(dataset_to_dict(tie_rich(random.Random(seed), draw))))
            params = work / f"tied-{label}-{seed}-params.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["fit", "--model", model, "--out", str(params), str(data)]) == 0
            yield f"fit tied {label} {seed}", ["fit", "--model", model, str(data)]
            yield f"verify tied {label} {seed}", ["verify", "--model", model, str(params),
                                                  str(data)]


def _fractional_commands(work):
    """check and fit on seeded datasets whose amounts, times and incomes
    have denominators 2-6, clean and perturbed until a Stationarity or
    Quasi-linearity witness with a non-integer shift appears."""
    for model, draw, battery, kind in FRACTIONAL:
        for seed in range(3):
            clean = draw(random.Random(seed))
            datasets = {"clean": clean, "witnessed": with_fractional_shift_witness(
                random.Random(seed), clean, battery, kind)}
            for label, ds in datasets.items():
                data = work / f"fractional-{model}-{seed}-{label}.json"
                data.write_text(to_json(dataset_to_dict(ds)))
                for command in ("check", "fit"):
                    yield (f"{command} {model} fractional {seed} {label}",
                           [command, "--model", model, str(data)])


def _drop_alternative(doc, fields):
    """``doc`` without the last id of its order, in each of ``fields``
    and in every table of ``doc["utilities"]`` keyed by id."""
    gone = doc["order"][-1]
    doc["order"] = doc["order"][:-1]
    for name in fields:
        del doc[name][gone]
    for table in doc["utilities"].values():
        if isinstance(table, dict):
            del table[gone]
    return doc


def _drop_first(table):
    del table[min(table, key=lambda key: Fraction(key))]


def _error_doc(model, doc):
    """Fitted params with one gap that some observed menu reaches: an
    alternative the order misses (ORDU, AREU), an amount off the grid
    (PBDU) or a reference Gini without a table (FSPU)."""
    if model == "ordu":
        return _drop_alternative(doc, ("utilities",))
    if model == "areu":
        return _drop_alternative(doc, ("lotteries", "utilities"))
    if model == "pbdu":
        _drop_first(doc["log_utility"])
    else:
        _drop_first(doc["tables"])
    return doc


def _error_commands(work):
    """simulate and verify through params fitted to the clean seeded
    dataset with one gap (``_error_doc``): each fails on one offender."""
    for model, make in SEEDED.items():
        doc = dataset_to_dict(make(random.Random(1)))
        data = work / f"error-{model}.json"
        data.write_text(to_json(doc))
        menus = work / f"error-{model}-menus.json"
        menus.write_text(to_json({**{k: v for k, v in doc.items() if k != "observations"},
                                  "menus": [obs["menu"] for obs in doc["observations"]]}))
        params = work / f"error-{model}-params.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", "--model", model, "--out", str(params), str(data)]) == 0
        params.write_text(to_json(_error_doc(model, json.loads(params.read_text()))))
        yield f"simulate {model} error", ["simulate", "--model", model, str(params), str(menus)]
        yield f"verify {model} error", ["verify", "--model", model, str(params), str(data)]


def _commands(work):
    return [*_fixture_commands(), *_seeded_commands(work), *_tied_commands(work),
            *_fractional_commands(work), *_error_commands(work)]


def record_cli():
    with tempfile.TemporaryDirectory() as work:
        return {label: {"json": _run(["--json", *argv]), "text": _run(argv)}
                for label, argv in _commands(Path(work))}


def record_demos():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        # fanning_triangle.py writes triangle.csv into its working directory
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                                  capture_output=True, text=True, check=True)
        out[demo.name] = _digest(proc.stdout)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cli_output_is_byte_identical_to_the_baseline(golden):
    got = record_cli()
    assert sorted(got) == sorted(golden["cli"])
    changed = [label for label in got if got[label] != golden["cli"][label]]
    assert not changed, f"output changed: {changed}"


def test_json_output_does_not_depend_on_the_hash_seed(golden, tmp_path):
    """A few --json commands, run in fresh interpreters under two hash
    seeds, print what the baseline recorded in this process."""
    commands = dict(_commands(tmp_path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for hash_seed in ("0", "1"):
        for label in HASH_SEEDED:
            proc = subprocess.run(
                [sys.executable, "-c", RUN_CLI, "--json", *commands[label]],
                env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True)
            got = [proc.returncode, _digest(proc.stdout), _digest(proc.stderr)]
            assert got == golden["cli"][label]["json"], (label, hash_seed)


def test_error_detail_does_not_depend_on_the_hash_seed(tmp_path):
    """verify on a menu with two payments off the amount grid, and on one
    with two splits off the other-income grid, names the smallest id's
    amount or income under every hash seed."""
    cases = (
        ("pbdu", payment_dataset({"a": pay(30, 0), "b": pay(40, 1)}, [("ab", "a")]),
         {"log_utility": {"10": "1"}, "log_discount": {"0": "-1"}},
         "amount 30 outside the fitted grid"),
        ("fspu", split_dataset({"a": split(5, 2), "b": split(4, 3)}, [("ab", "a")]),
         {"tables": {"1/14": {"1": "0", "5": "1"}}},
         "other-income 2 outside the fitted grid"),
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for model, dataset, params, detail in cases:
        data, fitted = tmp_path / f"{model}.json", tmp_path / f"{model}-params.json"
        data.write_text(to_json(dataset_to_dict(dataset)))
        fitted.write_text(to_json(params))
        printed = set()
        for hash_seed in "0123":
            proc = subprocess.run(
                [sys.executable, "-c", RUN_CLI, "--json", "verify", "--model", model,
                 str(fitted), str(data)],
                env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True)
            assert proc.returncode == 2, proc.stderr
            printed.add(json.loads(proc.stdout)["detail"])
        assert printed == {detail}, model


def test_demo_output_is_byte_identical_to_the_baseline(golden):
    got = record_demos()
    changed = [name for name in sorted(golden["demos"]) if got.get(name) != golden["demos"][name]]
    assert sorted(got) == sorted(golden["demos"]) and not changed, f"output changed: {changed}"


def test_a_passing_ordu_check_formats_no_warp_narrative(golden, tmp_path, monkeypatch):
    """A passing check on reference-dependent data with hundreds of global
    WARP violations never evaluates WARP, whose blocking rule decides
    every menu, and so formats none of their narratives; a failing check
    and a report still print the recorded bytes."""
    calls, evaluated = [], []
    fmt, check = choices._warp_narrative, choices.FiniteProperty.check
    monkeypatch.setattr(choices, "_warp_narrative", lambda *args: calls.append(args) or fmt(*args))
    monkeypatch.setattr(choices.FiniteProperty, "check", lambda prop, dataset, family: (
        evaluated.append(prop.name) or check(prop, dataset, family)))
    ds = large_ordu_data(random.Random(4))
    data = tmp_path / "ordu-large.json"
    data.write_text(to_json(dataset_to_dict(ds)))
    assert _run(["--json", "check", "--model", "ordu", str(data)])[0] == 0
    assert evaluated == [] and calls == []
    assert len(choices.warp_over(ds, ds.menus())) > 500
    commands = dict(_seeded_commands(tmp_path))
    for label in ("check ordu perturbed", "report ordu perturbed"):
        assert {"json": _run(["--json", *commands[label]]), "text": _run(commands[label])} \
            == golden["cli"][label]
    assert calls and "WARP" in evaluated


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"cli": record_cli(), "demos": record_demos()},
                                 indent=1, sort_keys=True) + "\n")
