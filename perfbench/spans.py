"""Tracing from outside the program: wrap public functions at the name their
caller looks up, record one span per call, and turn spans into per-layer
metrics.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces module
attributes (``repair.run_l2``) and class attributes
(``CandidateRuntime.execute``) with recording wrappers and
:meth:`Tracer.uninstall` puts the originals back, so untraced runs execute
the program exactly as shipped.  Spans are kept in memory: name, lookup
site, phase, instance id, start, end, parent and a few attributes.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable

from optverify import backend, cli, generator, l1, l2, llm, pipeline, reference, repair, runtime, scenario


def _model_size(args, kwargs, model) -> dict[str, int]:
    return {"rows": len(model.constraints), "cols": len(model.variables),
            "nonzeros": sum(len(c.coefficients) for c in model.constraints)}


def _iis_size(args, kwargs, iis) -> dict[str, int]:
    return {"size": len(iis)}


def _repair_iterations(args, kwargs, outcome) -> dict[str, int]:
    return {"iterations": outcome.iterations}


# (owner, attribute, span name, site).  The site names the lookup that the
# wrapper replaces; one function can be wrapped at several sites.
TARGETS: list[tuple[Any, str, str, str]] = [
    (cli, "main", "cli.main", "cli.main"),
    (cli, "validate_instance", "scenario.validate_instance", "cli"),
    (cli, "run_instance", "pipeline.run_instance", "cli"),
    (cli, "build_record", "evaluation.build_record", "cli"),
    (cli, "write_records", "evaluation.write_records", "cli"),
    (generator, "generate_suite", "generator.generate_suite", "generator"),
    (generator, "validate_instance", "scenario.validate_instance", "generator"),
    (generator, "render_prompt", "prompts.render_prompt", "generator"),
    (scenario, "validate_instance", "scenario.validate_instance", "scenario"),
    (pipeline, "generate_with_schema", "llm.generate_with_schema", "pipeline"),
    (pipeline, "generate", "llm.generate", "pipeline"),
    (pipeline, "l1_verify_with_regeneration", "l1.l1_verify_with_regeneration", "pipeline"),
    (pipeline, "repair_loop", "repair.repair_loop", "pipeline"),
    (l1, "l1_verify", "l1.l1_verify", "l1"),
    (repair, "l1_verify", "l1.l1_verify", "repair"),
    (repair, "run_l2", "l2.run_l2", "repair"),
    (l2, "extract_constraints", "l2.extract_constraints", "l2"),
    (l2, "extract_objective_terms", "l2.extract_objective_terms", "l2"),
    (l2, "perturb_parameter", "l2.perturb_parameter", "l2"),
    (runtime.CandidateRuntime, "execute", "runtime.execute", "runtime"),
    (llm.LlmClient, "complete", "llm.complete", "llm"),
    (llm.RecordingTransport, "send", "llm.record", "llm"),
    (reference, "ground_truth", "reference.ground_truth", "reference"),
    (reference, "solve_reference", "reference.solve_reference", "reference"),
    (reference, "build_reference_model", "reference.build_reference_model", "reference"),
    (backend.HighsBackend, "solve", "backend.solve", "backend"),
    (backend.HighsBackend, "compute_iis", "backend.compute_iis", "backend"),
    (backend, "milp", "backend.milp", "backend"),
]

_ON_RESULT: dict[str, Callable] = {
    "reference.build_reference_model": _model_size,
    "backend.compute_iis": _iis_size,
    "repair.repair_loop": _repair_iterations,
}


class Tracer:
    """Records spans while installed; ``phase`` and ``instance`` label them."""

    def __init__(self):
        self.spans: list[dict[str, Any]] = []
        self.phase = "setup"
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._seen_requests: set[tuple[str | None, str]] = set()

    def install(self) -> None:
        for owner, attr, name, site in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, site))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, name: str, site: str) -> dict[str, Any]:
        span = {"id": len(self.spans), "name": name, "site": site, "phase": self.phase,
                "instance": self.instance,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, site: str) -> Callable:
        on_result = _ON_RESULT.get(name)
        children = name == "runtime.execute"
        requests = name == "llm.complete"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, site)
            if children:
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if children:
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                span["child_cpu_s"] = (after.ru_utime + after.ru_stime
                                       - before.ru_utime - before.ru_stime)
                span["child_maxrss_kb"] = after.ru_maxrss
            if requests:
                key = (self.instance, hashlib.sha256(repr(args[1:]).encode()).hexdigest())
                span["repeat"] = key in self._seen_requests
                self._seen_requests.add(key)
            if on_result is not None:
                span.update(on_result(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def instance_span(self, instance_id: str):
        """The benchmark's own span around one instance; program spans nest in it."""
        self.instance = instance_id
        span = self._open("instance", "perfbench")
        try:
            yield span
        finally:
            self._close(span)
            self.instance = None


def _dur(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


PER_INSTANCE_COUNTS = {
    "backend.solves": ("backend.solve", None),
    "runtime.executions": ("runtime.execute", None),
    "l1.calls": ("l1.l1_verify", None),
    "repair.reverifications": ("l1.l1_verify", "repair"),
    "l2.passes": ("l2.run_l2", None),
    "l2.perturbations": ("l2.perturb_parameter", None),
    "llm.calls": ("llm.complete", None),
}
PER_INSTANCE_SECONDS = {
    "reference.build_s": "reference.build_reference_model",
    "backend.solve_s": "backend.solve",
    "backend.milp_s": "backend.milp",
    "backend.iis_s": "backend.compute_iis",
    "runtime.execute_s": "runtime.execute",
    "l1.verify_s": "l1.l1_verify",
    "l2.perturb_s": "l2.perturb_parameter",
    "l2.run_s": "l2.run_l2",
    "repair.loop_s": "repair.repair_loop",
    "llm.call_s": "llm.complete",
    "pipeline.run_instance_s": "pipeline.run_instance",
    "cli.main_s": "cli.main",
}
SETUP_SECONDS = {
    "generator.generate_suite_s": "generator.generate_suite",
    "scenario.validate_s": "scenario.validate_instance",
    "prompts.render_s": "prompts.render_prompt",
    "llm.record_s": "llm.record",
}


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "reference.build_s": "s", "reference.rows": "count", "reference.cols": "count",
    "reference.nonzeros": "count",
    "backend.solves": "count", "backend.solve_s": "s", "backend.milp_s": "s",
    "backend.assembly_s": "s",
    "scenario.validate_s": "s", "generator.generate_suite_s": "s", "prompts.render_s": "s",
    "runtime.executions": "count", "runtime.execute_s": "s", "runtime.execute_p50_s": "s",
    "runtime.child_cpu_s": "s", "runtime.child_maxrss_mb": "MB",
    "l1.calls": "count", "l1.verify_s": "s",
    "l2.passes": "count", "l2.perturbations": "count", "l2.perturb_s": "s", "l2.run_s": "s",
    "repair.iterations": "count", "repair.reverifications": "count", "repair.loop_s": "s",
    "llm.calls": "count", "llm.repeated_requests": "count", "llm.call_s": "s",
    "llm.record_s": "s",
    "pipeline.run_instance_s": "s", "pipeline.self_s": "s", "evaluation.evaluate_s": "s",
    "cli.main_s": "s",
    "backend.iis_s": "s", "backend.iis_solves": "count", "backend.iis_size": "count",
    "trace.overhead_ips": "1/s", "trace.uncovered_share": "ratio",
}


def _outermost(spans: list[dict[str, Any]], name: str) -> list[dict[str, Any]]:
    """Spans called ``name`` that do not nest inside another of that name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer figures of one traced run.

    Round figures are per instance of the traced round (totals divided by the
    number of instances); ``*_p50_s`` is a median over calls and
    ``runtime.child_maxrss_mb`` a maximum.  Set-up figures are seconds spent
    in that layer during the traced set-up.
    """
    setup = [s for s in spans if s["phase"] == "setup"]
    rnd = [s for s in spans if s["phase"] == "round"]
    instances = [s for s in rnd if s["name"] == "instance"]
    n = max(1, len(instances))
    out: dict[str, float] = {}
    for metric, (name, site) in PER_INSTANCE_COUNTS.items():
        out[metric] = sum(1 for s in rnd if s["name"] == name
                          and (site is None or s["site"] == site)) / n
    for metric, name in PER_INSTANCE_SECONDS.items():
        out[metric] = sum(_dur(s) for s in _outermost(rnd, name)) / n
    for metric, name in SETUP_SECONDS.items():
        out[metric] = sum(_dur(s) for s in _outermost(setup, name))
    builds = [s for s in rnd if s["name"] == "reference.build_reference_model"]
    for key in ("rows", "cols", "nonzeros"):
        out[f"reference.{key}"] = sum(s[key] for s in builds) / n
    out["backend.assembly_s"] = out["backend.solve_s"] - out["backend.milp_s"]

    by_id = {s["id"]: s for s in spans}

    def inside(span: dict[str, Any], name: str) -> bool:
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    out["backend.iis_solves"] = sum(
        1 for s in rnd if s["name"] == "backend.solve" and inside(s, "backend.compute_iis")) / n
    out["backend.iis_size"] = sum(s["size"] for s in rnd if s["name"] == "backend.compute_iis") / n
    execs = [s for s in rnd if s["name"] == "runtime.execute"]
    out["runtime.execute_p50_s"] = statistics.median(_dur(s) for s in execs) if execs else 0.0
    out["runtime.child_cpu_s"] = sum(s["child_cpu_s"] for s in execs) / n
    out["runtime.child_maxrss_mb"] = max((s["child_maxrss_kb"] for s in execs), default=0) / 1024
    out["repair.iterations"] = sum(
        s["iterations"] for s in rnd if s["name"] == "repair.repair_loop") / n
    out["llm.repeated_requests"] = sum(
        1 for s in rnd if s["name"] == "llm.complete" and s["repeat"]) / n

    children: dict[int, float] = {}
    for s in rnd:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    runs = [s for s in rnd if s["name"] == "pipeline.run_instance"]
    out["pipeline.self_s"] = sum(_dur(s) - children.get(s["id"], 0.0) for s in runs) / n
    out["evaluation.evaluate_s"] = sum(
        _dur(s) for s in rnd if s["name"].startswith("evaluation.")) / n
    wall = sum(_dur(s) for s in instances)
    covered = sum(children.get(s["id"], 0.0) for s in instances)
    out["trace.uncovered_share"] = (wall - covered) / wall if wall else 0.0
    return out
