"""Benchmark entry point: one seeded workload through ``refdep.cli.main``.

    python3 bench/run.py --workload check_large --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, times set-up (a fresh import
of refdep plus loading and validating every input file), then runs whole
rounds of the workload's commands in this process until ``--seconds``
have passed.  Every output is checked against the benchmark's own
computation.  Times are reported at nominal host speed (see
``hostspeed``).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the first half of the time runs untraced and the second
half with per-layer spans installed (see ``tracing``), and the metrics
are the per-layer ones.  Details go to ``bench/results/``.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15

SELF_TIMES = {
    "cli.self_s": "cli", "serialize.load_s": "serialize.load",
    "serialize.emit_s": "serialize.emit", "choices.validate_s": "choices.validate",
    "choices.warp_s": "choices.warp", "engine.refdep_s": "engine.refdep",
    "engine.psi_s": "engine.psi", "timepref.stationarity_s": "timepref.stationarity",
    "timepref.refdep_s": "timepref.refdep",
    "social.quasilinearity_s": "social.quasilinearity",
    "risk.independence_s": "risk.independence", "risk.fit_self_s": "risk.fit",
    "feasibility.build_s": "feasibility.build", "feasibility.solve_s": "feasibility.solve",
    "ordu.build_s": "ordu.build", "model.simulate_s": "model.simulate",
    "model.verify_s": "model.verify",
}
COUNTS = {
    "serialize.load_calls": "serialize.load.calls",
    "choices.warp_calls": "choices.warp.calls",
    "engine.refdep_calls": "engine.refdep.calls", "engine.psi_calls": "engine.psi.calls",
    "timepref.stationarity_calls": "timepref.stationarity.calls",
    "social.quasilinearity_calls": "social.quasilinearity.calls",
    "risk.independence_calls": "risk.independence.calls",
    "feasibility.solves": "feasibility.solves", "feasibility.feasible": "feasibility.feasible",
    "feasibility.rows": "feasibility.rows", "feasibility.vars": "feasibility.vars",
}
OP_KINDS = ("simulate", "check", "fit", "verify", "report")


def fresh_import():
    for name in [n for n in sys.modules if n == "refdep" or n.startswith("refdep.")]:
        del sys.modules[name]
    return importlib.import_module("refdep.cli")


def load_inputs(cli, inputs):
    """Load and validate every input file the way the CLI does."""
    for loader, path in inputs:
        if loader == "dataset":
            cli.load_dataset(path)
        else:
            with open(path) as fh:
                doc = json.load(fh)
            if loader == "menus":
                cli.menus_from_dict(doc)
            else:
                cli._FITTERS[loader.split(":")[1]][1].from_json(doc)


def measure_setup(inputs):
    """Median set-up time at nominal host speed, over SETUP_REPEATS."""
    load_inputs(fresh_import(), inputs)  # compiles bytecode, warms the file cache
    clock = hostspeed.Clock(stretch_s=0)   # a kernel on each side of every repeat
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        load_inputs(fresh_import(), inputs)
        clock.add(time.perf_counter() - start, lambda raw, f: times.append((raw, raw * f)))
    clock.close()
    return times


class Runner:
    """Runs whole rounds of a workload and keeps per-command results."""

    def __init__(self, workload):
        self.workload = workload
        self.cli = sys.modules["refdep.cli"]
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.times = []        # (kind, raw_s, normalised_s)
        self.layers = {}       # layer -> normalised self seconds
        self.witnesses = 0

    def run_op(self, op, tracer):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        raw = time.perf_counter() - start
        layer_raw = tracer.take() if tracer else {}
        self.attempted += 1
        if code != op.expect:
            self.failed += 1
            self.wrong.append(f"{' '.join(op.argv)}: exit {code}, expected {op.expect}; "
                              f"{out.getvalue()[:500]}{err.getvalue()[:500]}")
            return raw, layer_raw
        try:
            self.witnesses += op.check(out.getvalue())
        except (workloads.Wrong, KeyError, ValueError, TypeError) as exc:
            self.wrong.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        return raw, layer_raw

    def rounds(self, seconds, clock, tracer=None, at_least=1):
        """Whole rounds until ``seconds`` have passed; returns the count."""
        start = time.perf_counter()
        done = 0
        while done < at_least or time.perf_counter() - start < seconds:
            for op in self.workload.ops:
                raw, layer_raw = self.run_op(op, tracer)
                clock.add(raw, self._sink(op.kind, layer_raw))
            done += 1
        clock.close()
        return done

    def _sink(self, kind, layer_raw):
        def sink(raw, factor):
            self.times.append((kind, raw, raw * factor))
            for layer, seconds in layer_raw.items():
                self.layers[layer] = self.layers.get(layer, 0.0) + seconds * factor
        return sink

    def ops_per_s(self):
        return len(self.times) / sum(t for _, _, t in self.times)


def per_kind_p50_ms(times, index):
    out = {}
    for kind in OP_KINDS:
        values = [t[index] for t in times if t[0] == kind]
        if values:
            out[kind] = statistics.median(values) * 1000
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "refdep" / "__init__.py").is_file():
        print(f"error: no refdep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / "bench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def measure(args, work):
    workload = workloads.WORKLOADS[args.workload](args.seed, str(work))
    setup = measure_setup(workload.inputs)
    runner = Runner(workload)
    clock = hostspeed.Clock()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands_per_round": len(workload.ops),
              "python": sys.version.split()[0], "cpus": os.cpu_count()}

    if args.trace:
        detail["untraced_rounds"] = runner.rounds(args.seconds / 2, clock)
        untraced_ops_per_s = runner.ops_per_s()
        traced = Runner(workload)
        tracer = tracing.install()
        start = time.perf_counter()
        try:
            traced.rounds(0, clock, tracer)          # one round gives the exact counts
            counts, witnesses = dict(tracer.counts), traced.witnesses
            more = traced.rounds(args.seconds / 2 - (time.perf_counter() - start),
                                 clock, tracer, at_least=0)
        finally:
            tracer.remove()
        rounds = 1 + more
        detail["traced_rounds"] = rounds
        problems = check_spans(workload, counts)
        metrics = {name: (traced.layers.get(layer, 0.0) / rounds, "s")
                   for name, layer in SELF_TIMES.items()}
        metrics.update({name: (counts.get(key, 0), "count") for name, key in COUNTS.items()})
        metrics["witness.found"] = (witnesses, "count")
        metrics["trace.overhead_ops_per_s"] = (traced.ops_per_s() - untraced_ops_per_s, "1/s")
        for kind in OP_KINDS:
            metrics[f"op.{kind}_p50_ms"] = (per_kind_p50_ms(runner.times, 2).get(kind, 0.0), "ms")
        detail["layer_self_s_per_round"] = {k: v / rounds for k, v in sorted(traced.layers.items())}
        detail["counts_per_round"] = dict(sorted(counts.items()))
        runners = (runner, traced)
    else:
        detail["rounds"] = runner.rounds(args.seconds, clock)
        problems = []
        metrics = {
            "ops_per_s": (runner.ops_per_s(), "1/s"),
            "op_p50_ms": (statistics.median(t for _, _, t in runner.times) * 1000, "ms"),
            "setup_s": (statistics.median(n for _, n in setup), "s"),
        }
        runners = (runner,)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    wrong = [w for r in runners for w in r.wrong] + problems
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    detail.update({
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_normalised_s": [n for _, n in setup],
        "op_p50_ms_raw": per_kind_p50_ms(runner.times, 1),
        "op_p50_ms_normalised": per_kind_p50_ms(runner.times, 2),
        "command_s_raw": sum(t for _, t, _ in runner.times),
        "command_s_normalised": sum(t for _, _, t in runner.times),
        "kernel_s": clock.kernel_times, "nominal_kernel_s": hostspeed.NOMINAL_S,
        "wrong": wrong,
    })
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail["result"] = result
    results = ROOT / "bench" / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({"raw_op_p50_ms": detail["op_p50_ms_raw"],
                      "normalised_op_p50_ms": detail["op_p50_ms_normalised"],
                      "raw_setup_s": statistics.median(detail["setup_raw_s"])}))
    print(json.dumps(result))
    return 0


def check_spans(workload, counts):
    problems = []
    for layer in sorted(workload.must_fire):
        if not counts.get(layer + ".calls"):
            problems.append(f"span {layer} never fired")
    for layer in sorted(workload.must_not_fire):
        if counts.get(layer + ".calls"):
            problems.append(f"span {layer} fired {counts[layer + '.calls']} times")
    return problems


if __name__ == "__main__":
    sys.exit(main())
