"""The benchmark's three workloads and the checks on every output.

A workload is a list of CLI commands (one round) plus the input files
that set-up loads.  Each command carries the exit code it must return
and a check that compares its output with the benchmark's own
computation (``oracle``); a check raises ``Wrong`` on a mismatch and
returns the number of witnesses the output reports.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import gen
import oracle

STRUCTURAL = {"lottery": ("independence", "Independence"),
              "dated_payment": ("stationarity", "Stationarity"),
              "income_split": ("quasilinearity", "Quasi-linearity")}


class Wrong(Exception):
    """An output that disagrees with the benchmark's own computation."""


@dataclass
class Op:
    kind: str                      # the CLI subcommand
    argv: list
    expect: int                    # exit code the command must return
    check: Callable[[str], int]    # stdout -> witnesses reported; raises Wrong


@dataclass
class Workload:
    ops: list
    inputs: list                   # (loader, path) pairs loaded during set-up
    must_fire: set = field(default_factory=set)
    must_not_fire: set = field(default_factory=set)


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _expect(condition, message):
    if not condition:
        raise Wrong(message)


# -- checks -------------------------------------------------------------------


def _check_passes(model):
    def check(stdout):
        doc = json.loads(stdout)
        _expect(doc["model"] == model and doc["pass"] is True, f"check failed: {doc}")
        _expect(all(r["pass"] and not r["witnesses"] for r in doc["results"].values()),
                f"a passing battery reports witnesses: {doc}")
        return 0
    return check


def _check_verify(stdout):
    doc = json.loads(stdout)
    _expect(doc["pass"] is True and doc["mismatches"] == [], f"verify failed: {doc}")
    return 0


def _payloads(inst):
    return {a["id"]: a.get("payload") for a in inst.dataset["alternatives"]}


def replay_params(model, params, inst):
    """Re-evaluate a params document with the oracle on every observed menu."""
    pay = _payloads(inst)
    if model == "ordu":
        tables = {r: {x: F(v) for x, v in t.items()} for r, t in params["utilities"].items()}

        def choose(menu):
            return oracle.choose_ordu(params["order"], tables, menu)
    elif model == "areu":
        vectors, utilities = check_areu_params(params, pay)

        def choose(menu):
            return oracle.choose_areu(params["order"], vectors, utilities, menu)
    elif model == "pbdu":
        log_utility = {F(a): F(v) for a, v in params["log_utility"].items()}
        log_discount = {F(t): F(v) for t, v in params["log_discount"].items()}
        payments = {x: (F(p["amount"]), F(p["time"])) for x, p in pay.items()}

        def choose(menu):
            return oracle.choose_pbdu(log_utility, log_discount, payments, menu)
    else:
        tables = {F(r): {F(y): F(v) for y, v in t.items()}
                  for r, t in params["tables"].items()}
        splits = {x: (F(p["own"]), F(p["other"])) for x, p in pay.items()}

        def choose(menu):
            return oracle.choose_fspu(tables, splits, menu)
    for menu, observed in inst.observations.items():
        predicted = choose(menu)
        _expect(predicted == observed,
                f"{model} params predict {sorted(predicted)} in {sorted(menu)}, "
                f"observed {sorted(observed)}")


def check_areu_params(params, payloads):
    """Lotteries match the data; utilities are normalised, strictly
    increasing and weakly more concave up the order."""
    prizes = [F(x) for x in params["prizes"]]
    vectors = {x: tuple(F(p) for p in v) for x, v in params["lotteries"].items()}
    for x, payload in payloads.items():
        probs = {F(z): F(p) for z, p in payload["probs"].items()}
        _expect(set(probs) <= set(prizes), f"{x} has prizes off the grid")
        _expect(vectors.get(x) == tuple(probs.get(z, F(0)) for z in prizes),
                f"lottery {x} differs from the data")
    utilities = {x: tuple(F(p) for p in u) for x, u in params["utilities"].items()}
    for x, u in utilities.items():
        _expect(u[0] == 0 and u[-1] == 1, f"utility of {x} is not normalised")
        _expect(all(a < b for a, b in zip(u, u[1:])), f"utility of {x} is not increasing")
    rhos = [oracle.rho_vector(utilities[x]) for x in params["order"]]
    _expect(sorted(params["order"]) == sorted(vectors), "order does not cover the lotteries")
    _expect(all(a >= b for hi, lo in zip(rhos, rhos[1:]) for a, b in zip(hi, lo)),
            "utilities get more concave down the order")
    return vectors, utilities


def _check_fit(model, path, inst):
    def check(stdout):
        doc = json.loads(stdout)
        _expect(doc == {"model": model, "fit": "ok", "params_path": path},
                f"fit failed: {doc}")
        replay_params(model, _read(path), inst)
        return 0
    return check


def _check_simulate(path, inst):
    def check(stdout):
        _expect(json.loads(stdout) == {"simulate": "ok", "dataset_path": path},
                "simulate did not write its dataset")
        doc = _read(path)
        _expect(doc["alternatives"] == inst.dataset["alternatives"],
                "simulated alternatives differ from the menus file")
        got = {frozenset(o["menu"]): frozenset(o["choice"]) for o in doc["observations"]}
        _expect(got == inst.observations, "simulated choices differ from the oracle")
        return 0
    return check


def _check_report(inst):
    kind = inst.dataset["kind"]
    warp = oracle.warp_pairs(inst.observations)

    def check(stdout):
        doc = json.loads(stdout)
        linkage = doc["linkage"]
        names = {"warp"} | ({STRUCTURAL[kind][0]} if kind in STRUCTURAL else set())
        _expect(set(linkage) == names, f"unexpected linkage entries {sorted(linkage)}")
        _expect(doc["pass"] is (not inst.distinct), f"report verdict {doc['pass']} "
                f"on {'reference-dependent' if inst.distinct else 'shared'} parameters")
        found = 0
        for name, verdict in linkage.items():
            witnesses = verdict["witnesses"]
            _expect(verdict["pass"] is (not witnesses) is (not inst.distinct),
                    f"{name} verdict does not match the parameters")
            found += len(witnesses)
            tag = "WARP" if name == "warp" else STRUCTURAL[kind][1]
            for w in witnesses:
                _expect(w["kind"] == tag, f"{name} reports a {w['kind']} witness")
                _expect(all(frozenset(m) in inst.observations for m in w["menus"]),
                        f"{tag} witness names an unobserved menu")
        reported = {(frozenset(w["menus"][0]), frozenset(w["menus"][1]))
                    for w in linkage["warp"]["witnesses"]}
        _expect(reported == warp, "WARP witnesses differ from the oracle's replay")
        return found
    return check


# -- workloads ------------------------------------------------------------------


ALL_LAYERS = {"cli", "serialize.load", "serialize.emit", "choices.validate",
              "choices.warp", "engine.refdep", "engine.psi", "timepref.stationarity",
              "timepref.refdep", "social.quasilinearity", "risk.independence",
              "risk.fit", "feasibility.build", "feasibility.solve", "ordu.build",
              "model.simulate", "model.verify"}


def check_large(seed, work):
    """Thirty-two large model-generated datasets, eight per model, half
    with shared parameters; one `check` each."""
    rng = random.Random(seed)
    instances = []
    for _ in range(4):
        for distinct in (False, True):
            instances += [gen.ordu(rng, 8, distinct),
                          gen.areu_random(rng, 8, distinct, {2: 28, 3: 50, 4: 52}),
                          gen.pbdu_grid(rng, distinct, {2: 8, 3: 12, 4: 12}),
                          gen.fspu_grid(rng, distinct, {2: 25, 3: 45})]
    ops, inputs = [], []
    for i, inst in enumerate(instances):
        path = f"{work}/{i:02d}-{inst.model}.json"
        _write(path, inst.dataset)
        inputs.append(("dataset", path))
        ops.append(Op("check", ["--json", "check", "--model", inst.model, path], 0,
                      _check_passes(inst.model)))
    busy = {"cli", "serialize.load", "serialize.emit", "choices.validate", "choices.warp",
            "engine.refdep", "engine.psi", "timepref.stationarity", "timepref.refdep",
            "social.quasilinearity", "risk.independence"}
    return Workload(ops, inputs, busy, ALL_LAYERS - busy)


def _check_same_fit(path):
    def check(stdout):
        doc = json.loads(stdout)
        _expect(doc["fit"] == "ok" and doc["params"] == _read(path),
                "a second fit of the same data printed other parameters")
        return 0
    return check


def fit_lottery(seed, work, count=32):
    """Reference-dependent lottery datasets built like acceptance
    criterion 6: `fit --model areu --out`, `verify`, then `fit` again to
    standard output, which must print the same parameters.  The repeat
    makes fits two thirds of the commands, so the median command is a
    fit rather than the gap between the fast verifies and the slow fits."""
    rng = random.Random(seed)
    ops, inputs = [], []
    for i in range(count):
        inst = gen.areu_probe(rng, True)
        data, params = f"{work}/{i:02d}-data.json", f"{work}/{i:02d}-params.json"
        _write(data, inst.dataset)
        inputs.append(("dataset", data))
        ops.append(Op("fit", ["--json", "fit", "--model", "areu", "--out", params, data], 0,
                      _check_fit("areu", params, inst)))
        ops.append(Op("verify", ["--json", "verify", "--model", "areu", params, data], 0,
                      _check_verify))
        ops.append(Op("fit", ["--json", "fit", "--model", "areu", data], 0,
                      _check_same_fit(params)))
    busy = {"cli", "serialize.load", "serialize.emit", "choices.validate", "choices.warp",
            "engine.refdep", "engine.psi", "risk.independence", "risk.fit",
            "feasibility.build", "feasibility.solve", "model.verify"}
    return Workload(ops, inputs, busy, {"timepref.stationarity", "timepref.refdep",
                                        "social.quasilinearity", "ordu.build",
                                        "model.simulate"})


def study_small(seed, work, per_model=12):
    """Five-alternative datasets of all four models, half reference-
    dependent: simulate, check, fit, verify and report each."""
    rng = random.Random(seed)
    makers = {"ordu": lambda d: gen.ordu(rng, 5, d),
              "areu": lambda d: gen.areu_probe(rng, d),
              "pbdu": lambda d: gen.pbdu_probe(rng, d),
              "fspu": lambda d: gen.fspu_probe(rng, d)}
    ops, inputs = [], []
    for i in range(per_model):
        for model, make in makers.items():
            inst = make(i % 2 == 1)
            stem = f"{work}/{i:02d}-{model}"
            truth, menus = f"{stem}-truth.json", f"{stem}-menus.json"
            data, fitted = f"{stem}-data.json", f"{stem}-fitted.json"
            _write(truth, inst.params)
            _write(menus, inst.menus_doc)
            inputs += [(f"params:{model}", truth), ("menus", menus)]
            ops += [
                Op("simulate", ["--json", "simulate", "--model", model, "--out", data,
                                truth, menus], 0, _check_simulate(data, inst)),
                Op("check", ["--json", "check", "--model", model, data], 0,
                   _check_passes(model)),
                Op("fit", ["--json", "fit", "--model", model, "--out", fitted, data], 0,
                   _check_fit(model, fitted, inst)),
                Op("verify", ["--json", "verify", "--model", model, fitted, data], 0,
                   _check_verify),
                Op("report", ["--json", "report", data], 1 if inst.distinct else 0,
                   _check_report(inst)),
            ]
    return Workload(ops, inputs, set(ALL_LAYERS))


WORKLOADS = {"check_large": check_large, "fit_lottery": fit_lottery,
             "study_small": study_small}
