"""Run one workload on several seeds and summarise each end-to-end metric.

    python3 bench/spread.py --workload fit_lottery --seeds 1-10 [--seconds 20]

Runs ``bench/run.py`` once per seed, one process at a time, and prints
per metric the median, the quartiles and the spread (distance between
the quartiles as a share of the median), next to the metric's bound in
BENCHMARK.json, plus the share of failed commands.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values, failed = {}, []
    for seed in args.seeds:
        out = subprocess.run(spec["command"] + ["--workload", args.workload,
                                                "--seed", str(seed), "--seconds", str(seconds),
                                                "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stderr}")
        failed.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        print(f"{metric['name']:>12}: median {median:.4g}  quartiles {q1:.4g}..{q3:.4g}  "
              f"spread {(q3 - q1) / median:.3f}  bound {metric['bound']}")
    print(f"failed share per run: {sorted(set(failed))}")


if __name__ == "__main__":
    main()
