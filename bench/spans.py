"""Spans around the calls into each assouad module, recorded from outside.

The tracer replaces public functions at the module attributes their callers
look them up by, so the package itself carries no tracing code and private
helpers can move without breaking the benchmark. Spans stay in memory and
are written once, when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

# module -> public functions wrapped there; every `check_*` function that
# assouad.pipeline imports is wrapped as well, so a new check is traced too.
TRACED = {
    "pipeline": (
        "load_instance",
        "estimate_doubling_constant",
        "build_ladder",
        "build_levels",
        "build_embedding",
        "pairwise_distortion",
        "embedding_to_json_dict",
        "embedding_from_json_dict",
        "component_values",
    ),
    "embedding": ("forbidden_centers", "select_vector"),
    "instances": ("validate_metric",),
}

# Counts taken at the boundary: candidates offered to select_vector and
# exclusion centers returned by forbidden_centers.
COUNT_ARGS = {"select_vector": lambda candidates, *rest, **kwargs: len(candidates)}
COUNT_RESULT = {"forbidden_centers": len}

# Root spans the benchmark opens around the three steps of one operation.
SETUP, EMBED, VERIFY = "instances.load_instance", "pipeline.run_pipeline", "pipeline.verify_pipeline"


class Tracer:
    """In-memory span recorder; each span is a dict with id, name, op,
    parent, start, end and an optional count measured at the boundary."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "count": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, count_args=None, count_result=None):
        """Replace module.attr by a traced version named after the module
        that defines the function. count_args is called with the call's
        arguments, count_result with its return value."""
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if count_args is not None:
                    rec["count"] = count_args(*args, **kwargs)
                result = original(*args, **kwargs)
                if count_result is not None:
                    rec["count"] = count_result(result)
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self, assouad_modules: dict):
        """Wrap every function in TRACED; assouad_modules maps the short
        module names to the imported modules."""
        pipeline = assouad_modules["pipeline"]
        for short, attrs in TRACED.items():
            for attr in attrs:
                self.wrap(assouad_modules[short], attr, COUNT_ARGS.get(attr), COUNT_RESULT.get(attr))
        for attr in sorted(vars(pipeline)):
            if attr.startswith("check_") and callable(getattr(pipeline, attr)):
                self.wrap(pipeline, attr)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_us_per_probe"):
        return "us"
    if name.endswith(("_share", "_yield")):
        return "ratio"
    return "count"


# Per-layer metric names with their unit and which direction is better.
LAYERS = {
    name: (_unit(name), "higher" if name.endswith("_yield") else "lower")
    for name in (
        "instances.load_s", "metric.validate_s",
        "metric.doubling_s", "metric.doubling_probes", "metric.doubling_us_per_probe",
        "metric.doubling_share", "metric.c0",
        "nets.levels_s", "nets.scales", "nets.net_points", "nets.colors",
        "embedding.build_s", "embedding.build_self_s", "embedding.forbidden_s", "embedding.select_s",
        "embedding.forbidden_select_share", "embedding.vectors", "embedding.excluded_centers",
        "embedding.candidates_offered", "embedding.select_yield",
        "verify.net_invariants_s", "verify.separation_s", "verify.lipschitz_s", "verify.tail_sup_s",
        "verify.distortion_s", "verify.lipschitz_distortion_share", "verify.recheck_s",
        "verify.stored_coords_s", "verify.pairs", "verify.lipschitz_pair_evals",
        "pipeline.serialize_s", "pipeline.embed_self_s", "pipeline.parse_s", "pipeline.verify_self_s",
        "pipeline.embedding_bytes", "pipeline.report_bytes",
        "trace.embed_s", "trace.verify_s", "trace.overhead_embed_s", "trace.overhead_verify_s",
    )
}


def op_totals(spans: list[dict]) -> dict:
    """Per operation, {(root name, span name): [total s, self s, calls, count]}.

    Self time is a span's duration minus its children's; calls run one at a
    time, so children never overlap.
    """
    by_id = {rec["id"]: rec for rec in spans}
    child_time: dict = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
    out: dict = {}
    for rec in spans:
        root = rec
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        total = rec["end"] - rec["start"]
        acc = out.setdefault(rec["op"], {}).setdefault((root["name"], rec["name"]), [0.0, 0.0, 0, 0])
        acc[0] += total
        acc[1] += total - child_time.get(rec["id"], 0.0)
        acc[2] += 1
        acc[3] += rec["count"] or 0
    return out


def layer_metrics(spans: list[dict], facts: dict, untraced: dict) -> dict:
    """Per-layer metrics, each the median over the traced operations.

    facts holds counts computed from the instance and the outputs: n,
    doubling_radii, scales, net_points, colors, vectors, embedding_bytes,
    report_bytes. untraced holds the median embed_s and verify_s of the
    operations run without tracing, for the tracing overhead.
    """
    per_op = []
    for totals in op_totals(spans).values():
        def get(root, name, field=0):
            return totals.get((root, name), (0.0, 0.0, 0, 0))[field]

        def checks(root):
            return sum(
                acc[0] for (r, name), acc in totals.items()
                if r == root and (name.startswith("verify.check_") or name == "verify.pairwise_distortion")
            )

        doubling_s = get(EMBED, "metric.estimate_doubling_constant")
        probes = facts["n"] * facts["doubling_radii"] if get(EMBED, "metric.estimate_doubling_constant", 2) else 0
        select_calls = get(EMBED, "embedding.select_vector", 2)
        pairs = facts["n"] * (facts["n"] - 1) // 2
        embed_s = get(EMBED, EMBED)
        forbidden_s = get(EMBED, "embedding.forbidden_centers")
        select_s = get(EMBED, "embedding.select_vector")
        lipschitz_s = get(EMBED, "verify.check_lipschitz_levels")
        distortion_s = get(EMBED, "verify.pairwise_distortion")
        per_op.append({
            "instances.load_s": get(SETUP, SETUP),
            "metric.validate_s": get(SETUP, "metric.validate_metric"),
            "metric.doubling_s": doubling_s,
            "metric.doubling_probes": probes,
            "metric.doubling_us_per_probe": 1e6 * doubling_s / probes if probes else 0.0,
            "metric.doubling_share": doubling_s / embed_s,
            "metric.c0": facts["c0"],
            "nets.levels_s": get(EMBED, "nets.build_ladder") + get(EMBED, "nets.build_levels"),
            "nets.scales": facts["scales"],
            "nets.net_points": facts["net_points"],
            "nets.colors": facts["colors"],
            "embedding.build_s": get(EMBED, "embedding.build_embedding"),
            "embedding.build_self_s": get(EMBED, "embedding.build_embedding", 1),
            "embedding.forbidden_s": forbidden_s,
            "embedding.select_s": select_s,
            "embedding.forbidden_select_share": (forbidden_s + select_s) / embed_s,
            "embedding.vectors": facts["vectors"],
            "embedding.excluded_centers": get(EMBED, "embedding.forbidden_centers", 3),
            "embedding.candidates_offered": get(EMBED, "embedding.select_vector", 3),
            "embedding.select_yield": facts["vectors"] / select_calls if select_calls else 0.0,
            "verify.net_invariants_s": get(EMBED, "verify.check_net_invariants"),
            "verify.separation_s": get(EMBED, "verify.check_separation"),
            "verify.lipschitz_s": lipschitz_s,
            "verify.tail_sup_s": get(EMBED, "verify.check_tail_and_sup"),
            "verify.distortion_s": distortion_s,
            "verify.lipschitz_distortion_share": (lipschitz_s + distortion_s) / embed_s,
            "verify.recheck_s": checks(VERIFY),
            "verify.stored_coords_s": get(VERIFY, "verify.component_values"),
            "verify.pairs": pairs,
            "verify.lipschitz_pair_evals": pairs * facts["scales"] * 2 * facts["colors"],
            "pipeline.serialize_s": get(EMBED, "pipeline.embedding_to_json_dict"),
            "pipeline.embed_self_s": get(EMBED, EMBED, 1),
            "pipeline.parse_s": get(VERIFY, "pipeline.embedding_from_json_dict"),
            "pipeline.verify_self_s": get(VERIFY, VERIFY, 1),
            "pipeline.embedding_bytes": facts["embedding_bytes"],
            "pipeline.report_bytes": facts["report_bytes"],
            "trace.embed_s": embed_s,
            "trace.verify_s": get(VERIFY, VERIFY),
            "trace.overhead_embed_s": embed_s - untraced["embed_s"],
            "trace.overhead_verify_s": get(VERIFY, VERIFY) - untraced["verify_s"],
        })
    return {name: statistics.median(op[name] for op in per_op) for name in LAYERS}
