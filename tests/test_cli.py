import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from refdep.choices import Alternative
from refdep import cli
from refdep.cli import main
from refdep.exceptions import ValidationError
from refdep.ordu import simulate_ordu
from refdep.risk import fit_areu
from refdep.serialize import dataset_from_dict, dataset_to_dict, dump_dataset, parse_rational, to_json
from refdep.social import simulate_fspu
from refdep.timepref import simulate_pbdu

from helpers import (
    all_menus,
    allais_dataset,
    fspu_instance,
    pbdu_instance,
    random_ordu_params,
)


def run(argv):
    buffer = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buffer
    try:
        code = main(argv)
    finally:
        sys.stdout = stdout
    return code, buffer.getvalue()


def run_json(argv):
    code, out = run(["--json"] + argv)
    return code, json.loads(out)


def write_dataset(tmp_path, ds, name="data.json"):
    path = tmp_path / name
    dump_dataset(ds, path)
    return str(path)


def test_validate_fixture_uri():
    code, doc = run_json(["validate", "fixtures://compliance_2_1"])
    assert code == 0
    assert doc == {"ok": True, "kind": "generic",
                   "alternatives": 4, "observations": 11}


def test_validate_unknown_path_exits_2_with_json():
    code, doc = run_json(["validate", "/nonexistent/file.json"])
    assert code == 2
    assert doc["error"]


def test_check_violation_table_exits_1_with_empty_candidate_witness():
    code, doc = run_json(["check", "--model", "ordu",
                          "fixtures://violation_2_1"])
    assert code == 1
    witnesses = doc["results"]["reference_dependence"]["witnesses"]
    assert witnesses[0]["menu"] == ["a", "b", "c"]
    assert set(witnesses[0]["candidates"]) == {"a", "b", "c"}


def test_check_compliance_table_passes():
    code, doc = run_json(["check", "--model", "ordu",
                          "fixtures://compliance_2_1"])
    assert code == 0 and doc["pass"] is True


def test_fit_simulate_verify_round_trip_via_files(tmp_path):
    ds = allais_dataset()
    data_path = write_dataset(tmp_path, ds)
    params_path = str(tmp_path / "params.json")
    code, doc = run_json(["fit", "--model", "areu", "--out", params_path,
                          data_path])
    assert code == 0 and doc["fit"] == "ok"
    menus_path = str(tmp_path / "menus.json")
    dataset_doc = dataset_to_dict(ds)
    menus_doc = {"kind": dataset_doc["kind"],
                 "alternatives": dataset_doc["alternatives"],
                 "menus": [sorted(m) for m in ds.menus()]}
    with open(menus_path, "w") as fh:
        json.dump(menus_doc, fh)
    out_path = str(tmp_path / "sim.json")
    code, doc = run_json(["simulate", "--model", "areu", "--out", out_path,
                          params_path, menus_path])
    assert code == 0
    with open(out_path) as fh:
        sim = dataset_from_dict(json.load(fh))
    assert sim.same_observations(ds)
    code, doc = run_json(["verify", "--model", "areu", params_path, data_path])
    assert code == 0 and doc["pass"] is True


def test_simulate_triple_menu_reversal_via_files(tmp_path):
    from refdep.serialize import to_json
    from test_risk import warp_prediction_params
    params = warp_prediction_params()
    params_path = str(tmp_path / "areu.json")
    with open(params_path, "w") as fh:
        fh.write(to_json(params.to_json()))
    menus_path = str(tmp_path / "menus.json")
    probs = {"p1": {"3000": "1"},
             "q1": {"0": "1/10", "3000": "7/10", "4000": "1/5"},
             "q2": {"0": "3/10", "3000": "3/10", "4000": "2/5"}}
    menus_doc = {"kind": "lottery",
                 "alternatives": [{"id": k, "payload": {"probs": v}}
                                  for k, v in probs.items()],
                 "menus": [["p1", "q1", "q2"], ["q1", "q2"]]}
    with open(menus_path, "w") as fh:
        json.dump(menus_doc, fh)
    code, doc = run_json(["simulate", "--model", "areu",
                          params_path, menus_path])
    assert code == 0
    picks = {tuple(obs["menu"]): obs["choice"] for obs in doc["observations"]}
    assert picks[("p1", "q1", "q2")] == ["q1"]
    assert picks[("q1", "q2")] == ["q2"]


def test_fit_reverse_allais_reports_infeasible(tmp_path):
    from helpers import reverse_allais_dataset
    path = write_dataset(tmp_path, reverse_allais_dataset())
    code, doc = run_json(["fit", "--model", "areu", path])
    assert code == 1 and doc["fit"] == "infeasible"


def test_fit_pbdu_fixture_reports_present_bias(tmp_path):
    from helpers import pay, payment_dataset
    payments = {"a18_0": pay(18, 0), "a20_1": pay(20, 1),
                "a15_0": pay(15, 0), "a18_3": pay(18, 3), "a20_4": pay(20, 4)}
    ds = payment_dataset(payments, [
        (("a18_0", "a20_1"), ("a18_0",)),
        (("a18_3", "a20_4"), ("a20_4",)),
        (("a15_0", "a18_3", "a20_4"), ("a18_3",)),
    ])
    path = write_dataset(tmp_path, ds)
    code, doc = run_json(["fit", "--model", "pbdu", path])
    assert code == 0
    d0 = F(doc["params"]["log_discount"]["0"])
    d3 = F(doc["params"]["log_discount"]["3"])
    assert d0 < d3 < 0


def test_fit_axiom_failure_path_is_json(tmp_path):
    from helpers import pay, payment_dataset
    payments = {"now": pay(18, 0), "late": pay(18, 2)}
    ds = payment_dataset(payments, [(("now", "late"), ("late",))])
    path = write_dataset(tmp_path, ds)
    code, doc = run_json(["fit", "--model", "pbdu", path])
    assert code == 1 and doc["fit"] == "axiom_fails"
    assert doc["witnesses"][0]["kind"] == "Impatience"


def test_report_emits_linkage_json():
    code, doc = run_json(["report", "fixtures://compliance_2_1"])
    assert code == 1  # WARP fails globally on the compliance table
    assert doc["linkage"]["warp"]["pass"] is False
    assert "note" in doc


def test_fixtures_list_and_run():
    code, doc = run_json(["fixtures", "list"])
    assert code == 0 and "compliance_2_1" in doc["fixtures"]
    code, doc = run_json(["fixtures", "run", "binary_cycle"])
    assert code == 0 and doc["matches"] is True


def test_fixtures_run_unknown_name_exits_2_with_json():
    code, doc = run_json(["fixtures", "run", "nope"])
    assert code == 2
    assert doc["error"] == "UnknownFixture" and "nope" in doc["detail"]


def test_model_of_another_dataset_kind_exits_2_with_json(tmp_path):
    code, doc = run_json(["check", "--model", "pbdu", "fixtures://compliance_2_1"])
    assert code == 2 and doc["error"] == "validation"
    params_path = tmp_path / "pbdu.json"
    params_path.write_text(to_json(pbdu_instance(random.Random(0), False)[0].to_json()))
    code, doc = run_json(["verify", "--model", "pbdu", str(params_path),
                          "fixtures://compliance_2_1"])
    assert code == 2 and doc["error"] == "validation"


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "pbdu", "ordu.json", "fixtures://compliance_2_1"],
    ["simulate", "--model", "fspu", "pbdu.json", "menus.json"],
    ["simulate", "--model", "pbdu", "pbdu.json", "menus.json"],
    ["verify", "--model", "ordu", "twice.json", "fixtures://compliance_2_1"],
], ids=["ordu-params-as-pbdu", "pbdu-params-as-fspu", "generic-menus-for-pbdu",
        "ordu-order-with-a-repeat"])
def test_params_and_menus_of_another_model_exit_2_with_json(tmp_path, argv):
    ordu = random_ordu_params(random.Random(0)).to_json()
    docs = {"ordu.json": to_json(ordu),
            "twice.json": to_json({**ordu, "order": ["a", "a"]}),
            "pbdu.json": to_json(pbdu_instance(random.Random(0), False)[0].to_json()),
            "menus.json": to_json({"kind": "generic", "alternatives": [{"id": "a"}, {"id": "b"}],
                                   "menus": [["a", "b"]]})}
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / x) if x in docs else x for x in argv]
    code, doc = run_json(argv)
    assert code == 2 and doc["error"] == "validation"


@pytest.mark.parametrize("model, edit", [
    ("pbdu", lambda doc: {**doc, "log_discount": {}}),
    ("ordu", lambda doc: {**doc, "order": [*doc["order"][:-1], None]}),
    ("ordu", lambda doc: {**doc, "order": [True, *doc["order"][1:]]}),
], ids=["empty-pbdu-discount-table", "null-in-ordu-order", "boolean-in-ordu-order"])
def test_malformed_params_exit_2_with_a_validation_error(tmp_path, model, edit):
    docs = DOCUMENTS[model]
    paths = {name: tmp_path / f"{name}.json" for name in ("params", "menus", "data")}
    for name, doc in (("params", edit(docs["params"])), ("menus", docs["menus"]),
                      ("data", docs["data"])):
        paths[name].write_text(json.dumps(doc))
    params, menus, data = (str(paths[name]) for name in ("params", "menus", "data"))
    for argv in (["simulate", "--model", model, params, menus],
                 ["verify", "--model", model, params, data]):
        code, doc = run_json(argv)
        assert code == 2 and doc["error"] == "validation", (argv, doc)


def test_usage_errors_under_json_print_a_json_error(capsys):
    assert main(["--json", "fit", "--model", "nope", "x.json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "usage", "detail": (
        "refdep fit: argument --model: invalid choice: 'nope' "
        "(choose from 'areu', 'fspu', 'ordu', 'pbdu')")}
    assert err.startswith("usage: refdep fit ") and "error" not in err
    assert main(["fit", "--model", "nope", "x.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: refdep fit ")
    assert err.endswith("refdep fit: error: argument --model: invalid choice: 'nope' "
                        "(choose from 'areu', 'fspu', 'ordu', 'pbdu')\n")
    assert main(["--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "usage"
    with pytest.raises(SystemExit) as exc:
        main(["--json", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: refdep ")


def _generic_doc(ids, menu, choice):
    return {"kind": "generic", "alternatives": [{"id": x} for x in ids],
            "observations": [{"menu": menu, "choice": choice}]}


def test_non_string_alternative_ids_are_rejected():
    with pytest.raises(ValidationError):
        dataset_from_dict(_generic_doc([1, 2], [1, 2], [1]))


def test_bare_string_menus_and_choices_are_rejected():
    with pytest.raises(ValidationError):
        dataset_from_dict(_generic_doc("ab", "ab", ["a"]))
    with pytest.raises(ValidationError):
        dataset_from_dict(_generic_doc("ab", ["a", "b"], "a"))
    assert len(dataset_from_dict(_generic_doc("ab", ["a", "b"], ["a"])).observations) == 1


def test_json_booleans_are_not_rationals():
    with pytest.raises(ValidationError):
        parse_rational(True)
    doc = {"kind": "dated_payment", "alternatives": [
        {"id": "now", "payload": {"amount": True, "time": "0"}}], "observations": []}
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def test_byte_identical_reruns():
    args = ["--json", "check", "--model", "ordu", "fixtures://violation_2_1"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert (code1, out1) == (code2, out2)


def test_witness_menus_round_trip_through_validate():
    code, doc = run_json(["check", "--model", "ordu",
                          "fixtures://violation_2_1"])
    ds = dataset_from_dict({
        "kind": "generic",
        "alternatives": [{"id": x} for x in "abc"],
        "observations": [{"menu": w["menu"], "choice": w["menu"][:1]}
                         for w in doc["results"]["reference_dependence"]["witnesses"]],
    })
    assert len(ds.observations) == 1


def test_export_triangle_writes_csv(tmp_path):
    from refdep.serialize import to_json
    from test_risk import fan_out_params
    params = fan_out_params((F(0), F(1), F(3)), 4)
    params_path = str(tmp_path / "areu.json")
    with open(params_path, "w") as fh:
        fh.write(to_json(params.to_json()))
    out_path = str(tmp_path / "triangle.csv")
    code, doc = run_json(["export-triangle", "--resolution", "4",
                          "--out", out_path, params_path])
    assert code == 0 and doc["rows"] == 15
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "p_b,p_w,reference_id,utility_level"
    assert len(lines) == 16


def test_export_triangle_under_json_prints_the_csv_inside_json(tmp_path):
    from test_risk import fan_out_params
    params = fan_out_params((F(0), F(1), F(3)), 2)
    params_path = tmp_path / "areu.json"
    params_path.write_text(to_json(params.to_json()))
    code, doc = run_json(["export-triangle", "--resolution", "2", str(params_path)])
    assert code == 0 and doc["export"] == "ok" and doc["rows"] == 6
    code, text = run(["export-triangle", "--resolution", "2", str(params_path)])
    assert code == 0 and doc["csv"] == text
    assert text.splitlines()[0] == "p_b,p_w,reference_id,utility_level"


def test_areu_fit_without_observations_certifies_the_empty_dataset(tmp_path):
    doc = {**dataset_to_dict(allais_dataset()), "observations": []}
    data, params = tmp_path / "data.json", tmp_path / "params.json"
    data.write_text(json.dumps(doc))
    code, out = run_json(["fit", "--model", "areu", "--out", str(params), str(data)])
    assert code == 0 and out["fit"] == "ok"
    code, out = run_json(["verify", "--model", "areu", str(params), str(data)])
    assert code == 0 and out["pass"] is True


def test_text_mode_renders_without_error():
    code, out = run(["check", "--model", "ordu", "fixtures://compliance_2_1"])
    assert code == 0 and "pass" in out


def test_an_unexpected_exception_exits_2_with_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "cmd_report", broken)
    code, doc = run_json(["report", "fixtures://compliance_2_1"])
    assert code == 2 and doc == {"error": "internal", "detail": "ZeroDivisionError: boom"}
    assert "Traceback" in capsys.readouterr().err
    assert run(["report", "fixtures://compliance_2_1"]) == (2, "")
    assert capsys.readouterr().err.endswith("error: internal: ZeroDivisionError: boom\n")


def _documents():
    """Per model, a small valid (dataset, menus file, params) triple."""
    rng = random.Random(0)
    ordu = random_ordu_params(rng, ids=("a", "b", "c"))
    pbdu, payments, pbdu_menus = pbdu_instance(rng, True)
    fspu, splits, fspu_menus, _ = fspu_instance(rng, True)
    areu_data = allais_dataset()
    sources = {
        "ordu": (simulate_ordu(ordu, all_menus(ordu.order.ranking)), ordu),
        "areu": (areu_data, fit_areu(areu_data)),
        "pbdu": (simulate_pbdu(pbdu, [Alternative(k, v) for k, v in payments.items()],
                               pbdu_menus[:6]), pbdu),
        "fspu": (simulate_fspu(fspu, [Alternative(k, v) for k, v in splits.items()],
                               fspu_menus[:6]), fspu),
    }
    docs = {}
    for model, (ds, params) in sources.items():
        data = dataset_to_dict(ds)
        menus = {k: v for k, v in data.items() if k != "observations"}
        menus["menus"] = [obs["menu"] for obs in data["observations"]]
        docs[model] = {"data": data, "menus": menus, "params": params.to_json()}
    return docs


DOCUMENTS = _documents()
_LEAVES = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.floats(-2, 2, allow_nan=False, width=16)
           | st.sampled_from(["", "0", "1", "1/2", "-1", "0/0", "0.5", "a", "p1", "lottery",
                              "generic", "dated_payment", "income_split"]))
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["id", "menu", "choice", "probs", "0", "1", "a"]), inner, max_size=2),
    max_leaves=4)


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two values replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_locations(doc))))
        if not path:
            doc = draw(_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_VALUES)
        else:
            del parent[path[-1]]
    return doc


def _assert_contract(argv):
    """Exit code 0, 1 or 2; with --json one JSON document; never an
    internal error, which the CLI reports only for a defect."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if argv[0] == "--json":
        assert json.loads(out.getvalue()).get("error") != "internal", (argv, out.getvalue())
    assert "error: internal" not in err.getvalue(), (argv, err.getvalue())


def _commands(model, files):
    data, menus, params, out = (files[k] for k in ("data", "menus", "params", "out"))
    return [["validate", data], ["check", "--model", model, data],
            ["fit", "--model", model, data], ["fit", "--model", model, "--out", out, data],
            ["simulate", "--model", model, params, menus],
            ["verify", "--model", model, params, data], ["report", data],
            ["fixtures", "list"], ["fixtures", "run", "binary_cycle"],
            ["export-triangle", "--resolution", "2", "--out", out, params]]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_and_json_contract(data):
    model = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    docs = dict(DOCUMENTS[model])
    target = data.draw(st.sampled_from(sorted(docs)))
    docs[target] = data.draw(_mutated(docs[target]))
    as_json = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as work:
        files = {name: str(Path(work) / f"{name}.json") for name in (*docs, "out")}
        for name, doc in docs.items():
            Path(files[name]).write_text(json.dumps(doc))
        for argv in _commands(model, files):
            _assert_contract(["--json"] * as_json + argv)


@pytest.mark.parametrize("model", sorted(DOCUMENTS))
def test_every_command_keeps_the_contract_on_a_dataset_without_observations(model):
    docs = {**DOCUMENTS[model], "data": {**DOCUMENTS[model]["data"], "observations": []}}
    with tempfile.TemporaryDirectory() as work:
        files = {name: str(Path(work) / f"{name}.json") for name in (*docs, "out")}
        for name, doc in docs.items():
            Path(files[name]).write_text(json.dumps(doc))
        for argv in _commands(model, files):
            for prefix in ([], ["--json"]):
                _assert_contract(prefix + argv)
