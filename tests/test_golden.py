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
from pathlib import Path

import pytest

from refdep.cli import main
from refdep.rivals import fixture_names
from refdep.serialize import dataset_to_dict, to_json

from helpers import areu_data, fspu_data, ordu_data, pbdu_data, perturbed

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
MODELS = ("ordu", "areu", "pbdu", "fspu")
SEEDED = {"ordu": ordu_data, "areu": areu_data, "pbdu": pbdu_data, "fspu": fspu_data}


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


def record_cli():
    with tempfile.TemporaryDirectory() as work:
        commands = [*_fixture_commands(), *_seeded_commands(Path(work))]
        return {label: {"json": _run(["--json", *argv]), "text": _run(argv)}
                for label, argv in commands}


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


def test_demo_output_is_byte_identical_to_the_baseline(golden):
    got = record_demos()
    changed = [name for name in sorted(golden["demos"]) if got.get(name) != golden["demos"][name]]
    assert sorted(got) == sorted(golden["demos"]) and not changed, f"output changed: {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"cli": record_cli(), "demos": record_demos()},
                                 indent=1, sort_keys=True) + "\n")
