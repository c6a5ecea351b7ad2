"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload certify --seeds 1-10 [--seconds 10]

Runs bench/run.py once per seed, one run at a time, and prints one JSON
object: per metric the ten values, their median, quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    values: dict = {}
    failed = attempted = incorrect_runs = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        incorrect_runs += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals), "values": vals}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "attempted": attempted, "failed": failed, "incorrect_runs": incorrect_runs,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
