"""Benchmark of the assouad construct-and-certify pipeline.

    python3 bench/run.py --workload doubling --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Each workload runs in a child process (bench/workload.py) with BLAS threads
fixed, one operation at a time, for --seconds seconds. Every metric is
printed by name with its unit, then the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a run that alternates untraced and traced operations, and the
spans are written to .bench_out/. The package is imported from src/ of the
checkout this file sits in; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("doubling", "build", "certify")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def run_workload(workload: str, args) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "ASSOUAD_SEED"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "assouad" / "__init__.py").is_file():
        print(f"no assouad package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run_workload(workload, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
        detail = result.pop("detail")
        print(f"{workload}: seed {detail['seed']}, {result['attempted']} operations, {result['failed']} failed"
              f" (fail_frac {result['failed'] / result['attempted']:.3g}), self-test"
              f" {'ok' if detail['selftest_ok'] else 'FAILED'}, {json.dumps(detail['facts'])}")
        for name, sample in detail["samples"].items():
            print(f"{workload}:   {name}: {len(sample)} samples, min {min(sample):.4g}, max {max(sample):.4g}")
        for name, metric in result["metrics"].items():
            print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + name: metric for name, metric in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
