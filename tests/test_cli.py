import contextlib
import copy
import dataclasses
import gc
import io
import json
import sys
import tempfile
import time
import weakref
from pathlib import Path

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from refdep.choices import Alternative
from refdep import cli, engine, risk
from refdep.cli import main
from refdep.exceptions import AxiomFails, InfeasibleFit, ValidationError
from refdep.ordu import simulate_ordu
from refdep.risk import RISK_PROPERTY, fit_areu, simulate_areu
from refdep.serialize import dataset_from_dict, dataset_to_dict, dump_dataset, parse_rational, to_json
from refdep.social import simulate_fspu
from refdep.timepref import simulate_pbdu

from helpers import (
    all_menus,
    allais_dataset,
    areu_data,
    fspu_data,
    fspu_instance,
    large_ordu_data,
    ordu_data,
    pbdu_data,
    pbdu_instance,
    perturbed,
    perturbed_ordu_data,
    random_ordu_params,
    random_rho_monotone_areu,
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


@pytest.mark.parametrize("probs", [{"0": "-1/2", "2": "3/2"}, {"0": "1/2", "2": "1/4"}],
                         ids=["negative", "mass-deficient"])
def test_lottery_with_bad_probabilities_exits_2_with_json(tmp_path, probs):
    path = tmp_path / "data.json"
    path.write_text(to_json({
        "kind": "lottery",
        "alternatives": [{"id": "a", "payload": {"probs": probs}},
                         {"id": "b", "payload": {"probs": {"1": "1"}}}],
        "observations": [{"menu": ["a", "b"], "choice": ["a"]}]}))
    code, doc = run_json(["validate", str(path)])
    assert code == 2 and doc == {"error": "validation",
                                 "detail": "lottery probabilities must be >= 0 and sum to 1"}


def test_lottery_listing_a_prize_twice_exits_2_with_json(tmp_path):
    """Read as one pair, {"1": "1/2", "1.0": "1/2"} lost half its mass
    and the fit reported the valid data infeasible."""
    path = tmp_path / "data.json"
    path.write_text(to_json({
        "kind": "lottery",
        "alternatives": [{"id": "a", "payload": {"probs": {"1": "1/2", "1.0": "1/2"}}},
                         {"id": "b", "payload": {"probs": {"0": "1/2", "2": "1/2"}}},
                         {"id": "c", "payload": {"probs": {"0": "1/4", "1": "1/2", "2": "1/4"}}}],
        "observations": [{"menu": ["a", "b"], "choice": ["a"]},
                         {"menu": ["b", "c"], "choice": ["c"]}]}))
    for argv in (["validate"], ["check", "--model", "areu"], ["fit", "--model", "areu"],
                 ["report"]):
        code, doc = run_json(argv + [str(path)])
        assert code == 2 and doc == {"error": "validation",
                                     "detail": "a lottery must list each prize once"}, argv


def _write_lottery_data(tmp_path, prize):
    path = tmp_path / "data.json"
    path.write_text(to_json({
        "kind": "lottery",
        "alternatives": [{"id": "a", "payload": {"probs": {"0": "1/2", prize: "1/2"}}},
                         {"id": "b", "payload": {"probs": {"1": "1"}}}],
        "observations": [{"menu": ["a", "b"], "choice": ["a"]}]}))
    return path


@pytest.mark.parametrize("prize", ["1e5000", "1e100000000"])
def test_a_literal_past_the_integer_digit_limit_exits_2_with_json(tmp_path, prize):
    """Exponent notation got past Python's limit on the digits of an int:
    with a prize "1e5000" validate passed and fit crashed printing the
    params, and "1e100000000" kept validate building 10**100000000."""
    path = _write_lottery_data(tmp_path, prize)
    for argv in (["validate"], ["fit", "--model", "areu"]):
        start = time.perf_counter()
        code, doc = run_json(argv + [str(path)])
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and doc == {"error": "validation",
                                     "detail": f"bad rational literal {prize!r}"}, argv
    assert run_json(["validate", str(_write_lottery_data(tmp_path, "1e4000"))])[0] == 0
    assert parse_rational("1e4000") == 10 ** 4000


@pytest.mark.parametrize("payment", [{"amount": "-10", "time": "0"},
                                     {"amount": "10", "time": "-3"}],
                         ids=["negative-amount", "negative-time"])
def test_payment_with_bad_amount_or_time_exits_2_with_json(tmp_path, payment):
    path = tmp_path / "data.json"
    path.write_text(to_json({
        "kind": "dated_payment",
        "alternatives": [{"id": "a", "payload": payment},
                         {"id": "b", "payload": {"amount": "20", "time": "4"}}],
        "observations": [{"menu": ["a", "b"], "choice": ["a"]}]}))
    code, doc = run_json(["validate", str(path)])
    assert code == 2 and doc == {"error": "validation",
                                 "detail": "payments need amount > 0 and time >= 0"}


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
    ("ordu", lambda doc: {**doc, "utilities": {"a": doc["utilities"]["a"]}}),
    ("ordu", lambda doc: {**doc, "utilities": {**doc["utilities"], "z": doc["utilities"]["a"]}}),
    ("ordu", lambda doc: {**doc, "utilities": {**doc["utilities"], "b": {"b": "1"}}}),
    ("areu", lambda doc: {**doc, "utilities": dict.fromkeys(doc["utilities"], ["0", "1", "1"])}),
    ("areu", lambda doc: {**doc, "lotteries": {k: v[:2] for k, v in doc["lotteries"].items()}}),
], ids=["empty-pbdu-discount-table", "null-in-ordu-order", "boolean-in-ordu-order",
        "missing-ordu-utility", "stray-ordu-utility", "ordu-utility-missing-an-id",
        "areu-utility-not-increasing", "areu-lottery-off-the-grid"])
def test_malformed_params_exit_2_with_a_validation_error(tmp_path, model, edit):
    docs = DOCUMENTS[model]
    paths = {name: tmp_path / f"{name}.json" for name in ("params", "menus", "data")}
    for name, doc in (("params", edit(docs["params"])), ("menus", docs["menus"]),
                      ("data", docs["data"])):
        paths[name].write_text(json.dumps(doc))
    params, menus, data = (str(paths[name]) for name in ("params", "menus", "data"))
    for argv in (["simulate", "--model", model, params, menus],
                 ["verify", "--model", model, params, data],
                 *([["export-triangle", params]] if model == "areu" else [])):
        code, doc = run_json(argv)
        assert code == 2 and doc["error"] == "validation", (argv, doc)


def test_an_unobserved_subset_is_named_by_sorted_ids(tmp_path):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "kind": "generic", "alternatives": [{"id": x} for x in "abcd"],
        "observations": [{"menu": ["a", "b", "c", "d"], "choice": ["a"]},
                         {"menu": ["a", "b"], "choice": ["a"]}]}))
    assert run_json(["fit", "--model", "ordu", str(data)]) == (2, {
        "error": "NotSubsetClosed",
        "detail": "subset ['a', 'c'] of maximal menu ['a', 'b', 'c', 'd'] unobserved"})


def test_an_ordu_fit_with_no_order_is_infeasible_not_an_error(tmp_path):
    """Subset-closed data that passes the battery but admits no order."""
    path = write_dataset(tmp_path, perturbed_ordu_data(19))
    detail = ("no member of ['a', 'c', 'd', 'e'] tops a congruent class: the menus "
              "with reference 'a' reveal 'd' weakly above 'a', "
              "but ['a', 'c', 'd'] chooses 'a' and not 'd'")
    assert run_json(["fit", "--model", "ordu", path]) == (1, {
        "model": "ordu", "fit": "infeasible", "detail": detail})
    assert run(["fit", "--model", "ordu", path]) == (
        1, f"detail: {detail}\nfit: infeasible\nmodel: ordu\n")


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


def test_one_parser_serves_every_command_of_a_process(monkeypatch, capsys):
    commands = [
        ["--json", "fit", "--model", "nope", "fixtures://compliance_2_1"],
        ["--json", "check", "--model", "ordu", "fixtures://compliance_2_1"],
        ["--json", "report", "fixtures://violation_2_1"],
        ["fit", "--model", "ordu"],
        ["fixtures", "list"],
        ["--json", "validate", "fixtures://compliance_2_1"],
    ]

    def call(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    first_calls = []
    for argv in commands:
        cli._parser.cache_clear()
        first_calls.append(call(argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [call(argv) for argv in commands] == first_calls
    assert len(built) == 1
    assert first_calls[0][0] == first_calls[3][0] == 2


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


@pytest.mark.parametrize("resolution", ["0", "-1"])
def test_export_triangle_below_resolution_one_is_a_validation_error(
        tmp_path, capsys, resolution):
    from test_risk import fan_out_params
    params_path = tmp_path / "areu.json"
    params_path.write_text(to_json(fan_out_params((F(0), F(1), F(3)), 2).to_json()))
    argv = ["export-triangle", "--resolution", resolution, str(params_path)]
    code, doc = run_json(argv)
    assert code == 2 and doc == {"error": "validation",
                                 "detail": f"resolution must be at least 1, got {resolution}"}
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == f"error: resolution must be at least 1, got {resolution}\n"


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


def _assert_fit_certifies(model, doc, tmp_path):
    data, params = tmp_path / "data.json", tmp_path / "params.json"
    data.write_text(json.dumps(doc))
    code, out = run_json(["fit", "--model", model, "--out", str(params), str(data)])
    assert code == 0 and out["fit"] == "ok"
    code, out = run_json(["verify", "--model", model, str(params), str(data)])
    assert code == 0 and out["pass"] is True


def _simulate(tmp_path, model, menus):
    params, path = tmp_path / "params.json", tmp_path / "menus.json"
    params.write_text(json.dumps(DOCUMENTS[model]["params"]))
    path.write_text(json.dumps(menus))
    return run_json(["simulate", "--model", model, str(params), str(path)])


@pytest.mark.parametrize("model", ["pbdu", "fspu"])
def test_simulate_rejects_a_menus_file_repeating_an_id(model, tmp_path):
    menus = copy.deepcopy(DOCUMENTS[model]["menus"])
    first = menus["alternatives"][0]
    menus["alternatives"].append({**first, "payload": menus["alternatives"][1]["payload"]})
    code, doc = _simulate(tmp_path, model, menus)
    assert code == 2 and doc == {"error": "validation",
                                 "detail": f"duplicate alternative id {first['id']!r}"}


@pytest.mark.parametrize("model", ["ordu", "areu", "pbdu", "fspu"])
def test_simulate_rejects_a_menus_file_repeating_a_menu(model, tmp_path):
    menus = copy.deepcopy(DOCUMENTS[model]["menus"])
    first = menus["menus"][0]
    menus["menus"].append(first[::-1])
    code, doc = _simulate(tmp_path, model, menus)
    assert code == 2 and doc == {"error": "validation",
                                 "detail": f"menu {sorted(first)} listed twice"}


def test_areu_params_with_a_bare_string_order_are_rejected(tmp_path):
    # a string of one-letter ids would otherwise be read letter by letter
    params = {"prizes": ["0", "1", "2"],
              "lotteries": {"a": ["0", "1", "0"], "b": ["1/2", "0", "1/2"]},
              "order": ["a", "b"],
              "utilities": {"a": ["0", "3/4", "1"], "b": ["0", "3/4", "1"]}}
    data = {"kind": "lottery", "observations": [{"menu": ["a", "b"], "choice": ["a"]}],
            "alternatives": [{"id": "a", "payload": {"probs": {"1": "1"}}},
                             {"id": "b", "payload": {"probs": {"0": "1/2", "2": "1/2"}}}]}
    params_path, data_path = tmp_path / "params.json", tmp_path / "data.json"
    data_path.write_text(json.dumps(data))
    params_path.write_text(json.dumps(params))
    verify = ["verify", "--model", "areu", str(params_path), str(data_path)]
    assert run_json(verify)[0] == 0
    params_path.write_text(json.dumps({**params, "order": "ab"}))
    error = {"error": "validation", "detail": "order 'ab' is not an array of alternative ids"}
    assert run_json(verify) == (2, error)
    assert run_json(["export-triangle", "--resolution", "1", str(params_path)]) == (2, error)


def test_simulate_keeps_the_floor_of_the_menus_file(tmp_path):
    menus = copy.deepcopy(DOCUMENTS["fspu"]["menus"])
    lowest = min(parse_rational(a["payload"][side]) for a in menus["alternatives"]
                 for side in ("own", "other"))
    menus["floor"] = "1/2"
    code, doc = _simulate(tmp_path, "fspu", menus)
    assert code == 0 and lowest > F(1, 2) and doc["floor"] == "1/2"
    menus["floor"] = str(lowest + 1)
    code, doc = _simulate(tmp_path, "fspu", menus)
    assert code == 2 and doc["error"] == "validation" and "below the floor" in doc["detail"]
    del menus["floor"]
    code, doc = _simulate(tmp_path, "fspu", menus)
    assert code == 0 and doc["floor"] == str(lowest)


@pytest.mark.parametrize("payload", [{"probs": {"0": "1"}}, {"probs": {"7": "1"}}])
def test_areu_verify_and_simulate_reject_a_lottery_other_than_the_params(payload, tmp_path):
    """Another lottery on the grid, or one on a prize off it, under an id
    the params name."""
    alt = DOCUMENTS["areu"]["menus"]["alternatives"][0]["id"]
    error = {"error": "validation",
             "detail": f"lottery {alt!r} differs from the params' lottery of that id"}
    menus = copy.deepcopy(DOCUMENTS["areu"]["menus"])
    menus["alternatives"][0]["payload"] = payload
    assert _simulate(tmp_path, "areu", menus) == (2, error)
    data = copy.deepcopy(DOCUMENTS["areu"]["data"])
    data["alternatives"][0]["payload"] = payload
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    params = tmp_path / "params.json"  # written by _simulate
    assert run_json(["verify", "--model", "areu", str(params), str(path)]) == (2, error)


def test_areu_params_on_a_prize_grid_that_is_not_strictly_increasing_are_rejected(tmp_path):
    # on the grid (2, 0, 1) a sure 1 would take utility 1 and beat a sure 2
    params = {"prizes": ["2", "0", "1"],
              "lotteries": {"two": ["1", "0", "0"], "one": ["0", "0", "1"]},
              "order": ["two", "one"],
              "utilities": {"two": ["0", "1/2", "1"], "one": ["0", "1/2", "1"]}}
    menus = {"kind": "lottery", "menus": [["one", "two"]],
             "alternatives": [{"id": "two", "payload": {"probs": {"2": "1"}}},
                              {"id": "one", "payload": {"probs": {"1": "1"}}}]}
    params_path, menus_path = tmp_path / "params.json", tmp_path / "menus.json"
    params_path.write_text(json.dumps(params))
    menus_path.write_text(json.dumps(menus))
    error = {"error": "validation", "detail": "prizes must be strictly increasing"}
    assert run_json(["simulate", "--model", "areu", str(params_path), str(menus_path)]) \
        == (2, error)
    assert run_json(["export-triangle", "--resolution", "1", str(params_path)]) == (2, error)


def test_a_floor_on_a_lottery_menus_file_is_rejected(tmp_path):
    menus = {**DOCUMENTS["areu"]["menus"], "floor": "1"}
    code, doc = _simulate(tmp_path, "areu", menus)
    assert code == 2 and doc == {
        "error": "validation", "detail": "a floor applies only to income_split menus, not lottery"}


@pytest.mark.parametrize("model", sorted(DOCUMENTS))
def test_fit_without_observations_certifies_the_empty_dataset(model, tmp_path):
    _assert_fit_certifies(model, {**DOCUMENTS[model]["data"], "observations": []}, tmp_path)


@pytest.mark.parametrize("model, payloads", [
    ("pbdu", ({"amount": "5", "time": "0"}, {"amount": "5", "time": "2"})),
    ("fspu", ({"own": "5", "other": "2"}, {"own": "4", "other": "2"}))])
def test_fit_with_one_amount_or_other_income_certifies_the_data(model, payloads, tmp_path):
    # the first payload wins: sooner, or more for oneself
    _assert_fit_certifies(model, {
        **DOCUMENTS[model]["data"],
        "alternatives": [{"id": alt, "payload": payload} for alt, payload in zip("ab", payloads)],
        "observations": [{"menu": ["a", "b"], "choice": ["a"]}]}, tmp_path)


@pytest.mark.parametrize("model", ["pbdu", "fspu"])
def test_fit_without_alternatives_is_a_validation_error(model, tmp_path):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({**DOCUMENTS[model]["data"], "alternatives": [],
                                "observations": []}))
    code, out = run_json(["fit", "--model", model, str(data)])
    assert code == 2 and out["error"] == "validation", out


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


LIFETIME_DATA = {"ordu": large_ordu_data, "areu": areu_data, "pbdu": pbdu_data,
                 "fspu": fspu_data}


@pytest.mark.parametrize("model", sorted(LIFETIME_DATA))
def test_a_dataset_dies_with_its_last_reference_after_check_fit_and_report(model):
    """With the cyclic collector off, a dataset is freed as soon as it is
    deleted after check, fit and report ran on it: nothing it caches
    refers back to it."""
    rng = random.Random(5)
    gc.disable()
    try:
        for noisy in (False, True):
            ds = LIFETIME_DATA[model](rng)
            if noisy:
                ds = perturbed(rng, ds)
            ref = weakref.ref(ds)
            for _, _, witnesses in cli._BATTERIES[model](ds):
                cli._verdict(witnesses)
            try:
                cli._FITTERS[model][0](ds)
            except AxiomFails as exc:
                cli._verdict(exc.witnesses)
            except InfeasibleFit:
                pass
            for witnesses in cli._LINKAGE_REPORTS.get(ds.kind, cli.linkage_report)(ds).values():
                cli._verdict(witnesses)
            del ds
            assert ref() is None
    finally:
        gc.enable()


def test_a_passing_areu_check_calls_fosd_once_per_pair_and_lists_no_candidates(
        tmp_path, monkeypatch):
    """On eight lotteries and their 154 menus of size 2-4, a passing
    ``check --model areu`` calls ``fosd`` at most once per ordered pair
    and never lists a menu's candidates or builds the witness masks,
    though the reference property has witnesses there."""
    params = random_rho_monotone_areu(random.Random(2), n_lotteries=8)
    ds = simulate_areu(params, all_menus(sorted(i for i, _ in params.lotteries), 2, 4))
    assert len(ds.menus()) == 154 and engine.witness_index(ds, RISK_PROPERTY)
    path = write_dataset(tmp_path, ds)
    calls = Counter()
    fosd = risk.fosd

    def counted(prizes, p, q):
        calls[p, q] += 1
        return fosd(prizes, p, q)

    def unused(*args):
        raise AssertionError("a passing check listed witnesses per menu")

    monkeypatch.setattr(risk, "fosd", counted)
    monkeypatch.setattr(engine, "_blocking", unused)
    monkeypatch.setattr(engine, "_witness_masks", unused)
    code, doc = run_json(["check", "--model", "areu", path])
    assert code == 0 and doc["pass"] is True
    assert calls and max(calls.values()) == 1 and len(calls) <= 8 * 7


@pytest.mark.parametrize("model", sorted(LIFETIME_DATA))
def test_witnesses_are_plain_values(model):
    """The witnesses of a model's battery and linkage report on perturbed
    data are plain frozen dataclass values: kind, menus and a narrative
    string, with ``dataclasses.replace`` giving an equal, equally hashed
    witness."""
    make = {**LIFETIME_DATA, "ordu": ordu_data}[model]
    witnesses = []
    for seed in range(6):
        rng = random.Random(seed)
        ds = perturbed(rng, make(rng))
        report = cli._LINKAGE_REPORTS.get(ds.kind, cli.linkage_report)(ds)
        for found in [ws for _, _, ws in cli._BATTERIES[model](ds)] + list(report.values()):
            for witness in found:
                if isinstance(witness, engine.ReferenceDependenceFailure):
                    witnesses += [w for _, ws in witness.per_candidate for w in ws]
                else:
                    witnesses.append(witness)
    assert "WARP" in {w.kind for w in witnesses}
    for witness in witnesses:
        assert [f.name for f in dataclasses.fields(witness)] == ["kind", "menus", "narrative"]
        narrative = dataclasses.astuple(witness)[2]
        assert type(narrative) is str and narrative == witness.narrative
        again = dataclasses.replace(witness, narrative=witness.narrative)
        assert again == witness and hash(again) == hash(witness)
