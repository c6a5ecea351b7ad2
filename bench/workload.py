"""One benchmark workload in its own process: closed loop, one client.

Started by run.py with BLAS threads already fixed. Prints one JSON object as
the last line of standard output: the end-to-end metrics (or, with
--trace 1, the per-layer metrics), plus the counts of operations attempted
and failed under the correctness gate.

One operation is three calls through the package's public entry points:
load_instance on the generated instance file (set-up), run_pipeline (build,
certify and write the embedding and report), and verify_pipeline (recheck
from the written files).
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import assouad  # noqa: E402
from assouad import embedding as embedding_mod  # noqa: E402
from assouad import instances, pipeline  # noqa: E402

from spans import EMBED, LAYERS, SETUP, VERIFY, Tracer, layer_metrics  # noqa: E402

# Workloads with the c0 each passes to run_pipeline (None: estimated).
C0 = {"doubling": None, "build": 12, "certify": 14}
DEFAULT_SEED = 1
ALPHA = 0.8
# auto_tau picks tau = 0.02 at alpha = 0.8, so the ladder radii below the
# diameter are 1, R1 = tau**2 and tau**4. Same-colour net points must be more
# than 10 * R1 apart, and the ladder gains its finest scale exactly when the
# closest pair is under 4 * R1. The random workloads condition on these so
# every seed gives the same ladder and palette; otherwise the number of
# scales and colours, and with them the file size and verify time, jump
# between seeds.
R1 = 0.02 ** 2
# Short steps are repeated until they add up to this much wall time, and
# their median is reported.
SETUP_MIN_S = 1.0
VERIFY_MIN_S = 1.0
BASELINE = HERE / "baseline.json"


def _close_pairs(space, radius: float) -> np.ndarray:
    """Per point, how many other points lie within radius."""
    near = space.dist <= radius
    np.fill_diagonal(near, False)
    return near.sum(axis=1)


def _centre_out(space):
    """The same points listed from the centre of the unit square outwards,
    so the greedy net at radius 1 is the single first point."""
    order = np.argsort(np.linalg.norm(space.coords - 0.5, axis=1), kind="stable")
    return instances.space_from_coords(space.coords[order])


def make_instance(workload: str, seed: int):
    """The workload's input for this seed; the same seed gives the same input."""
    if workload == "certify":
        grid = instances.grid_instance(22, 22)
        perm = np.random.default_rng(seed).permutation(grid.n)
        return instances.space_from_coords(grid.coords[perm])
    n = 100 if workload == "doubling" else 500
    for attempt in itertools.count():
        space = _centre_out(instances.random_instance(n, seed * 1000 + attempt))
        near = _close_pairs(space, 10 * R1)
        if workload == "doubling" and near.max() == 0:
            return space  # three scales, one colour
        if workload == "build" and near.max() == 1 and _close_pairs(space, 4 * R1).any():
            return space  # four scales, two colours


def _report(path: Path) -> dict:
    """A written report, or {} when the step wrote none."""
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def gate(build: tuple, recheck: tuple) -> list[str]:
    """Reasons one operation fails; empty when it passes.

    build and recheck are (exit code, report JSON). The certified ratios are
    checked here rather than trusted from the report's pass flag.
    """
    reasons = []
    for label, (code, report) in (("embed", build), ("verify", recheck)):
        if code != 0:
            reasons.append(f"{label} exited {code}")
        if report.get("pass") is not True:
            reasons.append(f"{label} report does not pass")
        values = [report.get(key) for key in ("lower_ratio", "upper_ratio", "lower_bound", "upper_bound")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            reasons.append(f"{label} ratios or bounds not finite: {values}")
        elif not values[2] <= values[0] <= values[1] <= values[3]:
            reasons.append(f"{label} ratios {values[:2]} outside bounds {values[2:]}")
    for key in ("lower_ratio", "upper_ratio"):
        a, b = build[1].get(key), recheck[1].get(key)
        if not (isinstance(a, float) and isinstance(b, float) and math.isclose(a, b, rel_tol=1e-9)):
            reasons.append(f"recheck {key} {b} != build {a}")
    return reasons


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _timed(step, tracer, name, before=None):
    if before is not None:
        before()
    start = time.perf_counter()
    if tracer is None:
        result = step()
    else:
        with tracer.span(name):
            result = step()
    return time.perf_counter() - start, result


def _repeat(step, min_s: float, tracer, name, before=None) -> list:
    """(seconds, result) of step, repeated until min_s of wall time has
    passed; steps return small results, since every one is kept."""
    samples = [_timed(step, tracer, name, before)]
    while sum(s for s, _ in samples) < min_s:
        samples.append(_timed(step, tracer, name, before))
    return samples


def _unlink(*paths):
    # Writing over a file written moments ago makes ext4 flush it at close,
    # which adds 0.07-0.8 s of disk time that varies from run to run; the
    # program writes fresh files instead, as on a first run.
    return lambda: [path.unlink(missing_ok=True) for path in paths]


def operation(paths: dict, c0, tracer=None, repeat=True) -> dict:
    """Set up, embed and verify; returns timings, facts and gate reasons.

    With repeat, set-up and verify run again until SETUP_MIN_S and
    VERIFY_MIN_S have passed, and every verify is gated.
    """
    op = {"setup_s": [], "embed_s": math.nan, "verify_s": [], "facts": {}, "reasons": []}
    try:
        _operation(paths, c0, tracer, repeat, op)
    except Exception:
        op["reasons"].append("raised " + traceback.format_exc().strip().replace("\n", " | "))
    return op


def _operation(paths: dict, c0, tracer, repeat: bool, op: dict):
    setups = _repeat(
        lambda: instances.load_instance(str(paths["instance"])).n, SETUP_MIN_S if repeat else 0.0, tracer, SETUP
    )
    op["setup_s"] = [s for s, _ in setups]
    config = pipeline.RunConfig(
        alpha=ALPHA,
        c0_override=c0,
        instance_path=str(paths["instance"]),
        out_path=str(paths["embedding"]),
        report_path=str(paths["report"]),
    )
    op["embed_s"], (code, payload) = _timed(
        lambda: pipeline.run_pipeline(config), tracer, EMBED, _unlink(paths["embedding"], paths["report"])
    )
    emb = payload.get("embedding")
    facts = op["facts"] = {
        "c0": emb.params.c0 if emb is not None else None,
        "colors": emb.chi if emb is not None else None,
        "dimension_n": emb.dimension_n if emb is not None else None,
        "scales": len(emb.levels) if emb is not None else 0,
        "vectors": len(emb.assignments) if emb is not None else 0,
    }
    del emb, payload
    if code != 0:
        op["reasons"].append(f"embed exited {code}")
        return
    build = (code, _report(paths["report"]))
    facts["net_points"] = facts["vectors"] // 2
    facts["embedding_bytes"] = paths["embedding"].stat().st_size
    facts["report_bytes"] = paths["report"].stat().st_size
    facts["sha256"] = _sha256(paths["embedding"])
    facts["lower_ratio"] = build[1]["lower_ratio"]
    facts["upper_ratio"] = build[1]["upper_ratio"]

    def verify():
        return pipeline.verify_pipeline(str(paths["instance"]), str(paths["embedding"]), str(paths["recheck"]))[0]

    for seconds, vcode in _repeat(
        verify, VERIFY_MIN_S if repeat else 0.0, tracer, VERIFY, _unlink(paths["recheck"])
    ):
        op["verify_s"].append(seconds)
        op["reasons"] += gate(build, (vcode, _report(paths["recheck"])))


RUN_INVARIANTS = ("c0", "colors", "dimension_n", "sha256")
PIN_KEYS = ("c0", "colors", "dimension_n", "lower_ratio", "upper_ratio")


def run_checks(ops: list, pins) -> None:
    """Fail operations whose outputs differ from the run's first operation
    or, for the default seed, from the pinned values."""
    first = ops[0]["facts"]
    for op in ops:
        facts = op["facts"]
        for key in RUN_INVARIANTS:
            if facts.get(key) != first.get(key):
                op["reasons"].append(f"{key} {facts.get(key)} differs from the first operation's {first.get(key)}")
        for key in PIN_KEYS if pins else ():
            got, want = facts.get(key), pins[key]
            if not (got == want or (isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9))):
                op["reasons"].append(f"{key} {got} != pinned {want}")


def nan_selftest(workdir: Path) -> bool:
    """The gate must fail an operation whose stored vector holds a NaN.

    Builds a small embedding, checks that the gate passes it, writes NaN into
    the first stored vector and rechecks it from the corrupted file.
    """
    paths = _paths(workdir / "selftest")
    instances.save_instance(instances.grid_instance(4, 4), str(paths["instance"]))
    clean = operation(paths, c0=None, repeat=False)
    if clean["reasons"]:
        print(f"self-test: clean embedding failed the gate: {clean['reasons']}", file=sys.stderr)
        return False
    with open(paths["embedding"]) as handle:
        doc = json.load(handle)
    doc["assignments"][0]["v"][0] = float("nan")
    corrupted = paths["embedding"].with_name("nan.json")
    with open(corrupted, "w") as handle:
        json.dump(doc, handle)
    paths["recheck"].unlink()
    try:
        code, _ = pipeline.verify_pipeline(str(paths["instance"]), str(corrupted), str(paths["recheck"]))
        reasons = gate((0, _report(paths["report"])), (code, _report(paths["recheck"])))
    except Exception:
        reasons = ["verify_pipeline raised on the corrupted file"]
    if not reasons:
        print("self-test: the gate passed an embedding with a NaN vector", file=sys.stderr)
    return bool(reasons)


def _paths(workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    names = {"instance": "instance.json", "embedding": "embedding.json", "report": "report.json", "recheck": "recheck.json"}
    return {key: workdir / name for key, name in names.items()}


def _doubling_radii(space) -> int:
    """Distinct probe radii of the default doubling policy: every pairwise
    distance and half of it (computed here, not read from the package)."""
    vals = np.unique(space.dist[np.triu_indices(space.n, k=1)])
    return len(np.unique(np.concatenate([vals / 2.0, vals])))


def measure(args, workdir: Path) -> dict:
    pins = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads(BASELINE.read_text())["workloads"][args.workload]["pinned"]
    paths = _paths(workdir / "run")
    space = make_instance(args.workload, args.seed)
    instances.save_instance(space, str(paths["instance"]))
    c0 = C0[args.workload]
    selftest_ok = nan_selftest(workdir)

    # The first operation grows the heap; how long the kernel takes to back
    # it with (huge) pages depends on the machine's memory state, which made
    # first operations on certify up to 20% slower at random. It is gated
    # but not timed.
    warmup = operation(paths, c0, repeat=False)
    tracer = Tracer() if args.trace else None
    ops, traced_ops = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds or (tracer and not traced_ops):
        if tracer is not None and len(ops) > len(traced_ops):
            tracer.op = len(ops) + len(traced_ops)
            tracer.install({"pipeline": pipeline, "embedding": embedding_mod, "instances": instances})
            try:
                traced_ops.append(operation(paths, c0, tracer, repeat=False))
            finally:
                tracer.uninstall()
        else:
            ops.append(operation(paths, c0))
    every = [warmup] + ops + traced_ops
    run_checks(every, pins)
    failed = sum(1 for op in every if op["reasons"])
    for op in every:
        for reason in dict.fromkeys(op["reasons"]):
            print(f"{args.workload}: operation failed: {reason}", file=sys.stderr)

    samples = {
        "embed_s": [op["embed_s"] for op in ops],
        "verify_s": [s for op in ops for s in op["verify_s"]],
        "setup_s": [s for op in ops for s in op["setup_s"]],
    }
    medians = {name: statistics.median(vals) if vals else math.nan for name, vals in samples.items()}
    facts = ops[0]["facts"]
    if tracer is None:
        metrics = {name: (value, "s") for name, value in medians.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["embedding_mb"] = (facts.get("embedding_bytes", math.nan) / 2**20, "MiB")
    else:
        facts = dict(facts, n=space.n, doubling_radii=_doubling_radii(space))
        values = layer_metrics(tracer.spans, facts, medians)
        metrics = {name: (values[name], LAYERS[name][0]) for name in LAYERS}
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
    return {
        "correct": failed == 0 and selftest_ok,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "selftest_ok": selftest_ok,
            "facts": {key: facts.get(key) for key in PIN_KEYS + ("scales", "net_points")},
            "samples": samples,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=C0, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(assouad.__file__).resolve().parent != ROOT / "src" / "assouad":
        print(f"imported assouad from {assouad.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"work-{args.workload}-{args.seed}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
