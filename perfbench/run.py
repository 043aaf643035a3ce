"""optverify benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload ground_truth --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``./src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller run record (environment,
per-instance walls, failures) goes to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"


def _import_program() -> bool:
    """Import numpy, scipy and the optverify under ./src; False when absent."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401
        import optverify
    except ImportError:
        return False
    return Path(optverify.__file__).resolve().is_relative_to(SRC.resolve())


IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, scipy.optimize, optverify.cli; print(time.perf_counter() - t)")


def _import_walls(reps: int = 3) -> list[float]:
    """Seconds to import numpy, scipy and optverify, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(reps)]


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _percentiles(walls: list[float]) -> dict[str, float]:
    """Median, plus the highest of p75/p90 that has ten samples beyond it."""
    out = {"p50_s": statistics.median(walls)}
    cuts = statistics.quantiles(walls, n=100) if len(walls) >= 40 else []
    if len(walls) >= 100:
        out["p90_s"] = cuts[89]
    elif len(walls) >= 40:
        out["p75_s"] = cuts[74]
    return out


def _environment() -> dict:
    import numpy
    import scipy
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


class Runner:
    """Runs rounds of one workload; keeps each round's walls and CPU."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.rounds: list[tuple[list[float], float]] = []
        self.attempted = self.failed = 0
        self.correct = True
        self.failures: list[dict] = []

    def _one(self, item) -> tuple[float, float]:
        """Time one instance, then check it untimed; returns (wall, CPU)."""
        self.attempted += 1
        round_no = len(self.rounds)
        cpu0 = _cpu()
        start = time.perf_counter()
        try:
            if self.tracer:
                with self.tracer.instance_span(f"r{round_no}/{item.key}"):
                    output = self.workload.run(item, round_no)
            else:
                output = self.workload.run(item, round_no)
        except Exception:
            wall, cpu = time.perf_counter() - start, _cpu() - cpu0
            self.failed += 1
            self.failures.append({"round": round_no, "instance": item.key,
                                  "error": traceback.format_exc(limit=4)})
            return wall, cpu
        wall, cpu = time.perf_counter() - start, _cpu() - cpu0
        try:
            errors = self.workload.check(item, round_no, output)
        except Exception:  # an output the check cannot even read is a wrong output
            errors = [traceback.format_exc(limit=4)]
        if errors:
            self.failed += 1
            self.correct = False
            self.failures.append({"round": round_no, "instance": item.key, "check": errors})
        return wall, cpu

    def round(self) -> tuple[list[float], float]:
        timed = [self._one(item) for item in self.workload.items]
        self.rounds.append(([w for w, _ in timed], sum(c for _, c in timed)))
        return self.rounds[-1]

    def rounds_for(self, seconds: float, min_rounds: int) -> list[tuple[list[float], float]]:
        """Whole rounds until ``seconds`` of timed wall and ``min_rounds`` are reached."""
        while len(self.rounds) < min_rounds or sum(sum(w) for w, _ in self.rounds) < seconds:
            self.round()
        return list(self.rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ground_truth", "replay_verify", "replay_repair", "iis_diagnose"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"optverify, numpy or scipy cannot be imported from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import spans
    import workloads

    scratch = BENCH / "work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Candidate runs make temp directories; keep them inside the checkout.
    (work / "tmp").mkdir()
    tempfile.tempdir = str(work / "tmp")
    try:
        return _run(args, work, spans, workloads)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, spans, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    import_walls = [] if tracer else _import_walls()
    setup_walls = []
    for _ in range(1 if tracer else workload.setup_reps):
        if tracer:
            tracer.install()
        start = time.perf_counter()
        workload.prepare()
        setup_walls.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()

    runner = Runner(workload)
    rounds = runner.rounds_for(args.seconds, workload.min_rounds)
    walls = [w for round_walls, _ in rounds for w in round_walls]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "instances": [item.key for item in workload.items],
        "rounds": len(rounds), "samples": len(walls),
        "setup_walls_s": setup_walls, "import_walls_s": import_walls,
        "timing": _percentiles(walls), "walls_s": walls,
        "round_cpu_s": [cpu for _, cpu in rounds],
    }
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Rates are medians over rounds, so a slow spell of the machine in one
    # round does not move the figure of the run.
    metrics = {
        "setup_s": (statistics.median(import_walls or [0.0]) + statistics.median(setup_walls), "s"),
        "instances_per_s": (statistics.median(len(w) / sum(w) for w, _ in rounds), "1/s"),
        "instance_p50_s": (statistics.median(walls), "s"),
        "cpu_s_per_instance": (statistics.median(cpu / len(w) for w, cpu in rounds), "s"),
        "peak_rss_mb": (max(own, kids) / 1024, "MB"),
    }
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    if tracer:
        tracer.phase = "round"
        runner.tracer = tracer
        tracer.install()
        try:
            traced, _ = runner.round()
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer.spans)
        layer["trace.overhead_ips"] = metrics["instances_per_s"][0] - len(traced) / sum(traced)
        metrics = {k: (layer[k], unit) for k, unit in spans.LAYER_UNITS.items()}
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["traced_walls_s"] = traced

    record.update(correct=runner.correct, attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = out_dir / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    if tracer:
        with open(base.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
