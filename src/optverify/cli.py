"""Operator command line: benchmark generation, ground truth, pipeline runs,
evaluation, and reporting.

Exit codes: 0 success, 1 partial failures (some instances failed), 2
configuration error: bad options or settings, input that cannot be read or
fails validation, or a model the solver cannot take as stated.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import DEFAULT_CONFIG, PipelineConfig, read_settings
from .errors import BackendError, ConfigError, LlmError, SchemaError
from .evaluation import (
    aggregate,
    build_record,
    is_objective,
    normalize_pred_status,
    read_records,
    render_table,
    write_records,
)
from .generator import generate_suite
from .llm import (
    REPLAY_CONFIG,
    HttpTransport,
    LlmClient,
    LlmConfig,
    RecordingTransport,
    ReplayTransport,
)
from .pipeline import run_instance
from .prompts import PROMPT_FORMATS, SCHEMA_BASED, render_prompt, split_instance_name
from .reference import ground_truth
from .scenario import validate_instance

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _read_json(path: Path):
    """The JSON document in ``path``; an unreadable one is a configuration error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_instance(path: Path):
    return validate_instance(_read_json(path))


def _instance_files(instances_dir: Path) -> list[Path]:
    manifest = instances_dir / "manifest.json"
    if manifest.exists():
        doc = _read_json(manifest)
        entries = doc.get("instances") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ConfigError(f"{manifest}: no instances list")
        for e in entries:
            if not (isinstance(e, dict) and isinstance(e.get("instance_file"), str)):
                raise ConfigError(f"{manifest}: entry without a string instance_file: {e!r}")
        return [instances_dir / e["instance_file"] for e in entries]
    return sorted(
        p for p in instances_dir.glob("*.json") if p.name != "manifest.json")


def cmd_gen_bench(args: argparse.Namespace) -> int:
    manifest = generate_suite(args.out)
    print(f"wrote {manifest['count']} instances to {args.out}")
    return EXIT_OK


def _map(fn, items, workers: int):
    """``fn`` over ``items`` in order: in this process when ``workers`` is 1,
    else on a pool of that many spawned processes.

    A forked worker would copy this process's memory but not its threads,
    such as the pool HiGHS keeps after any solve here, and a MIP it solved
    could wait on them forever.  Spawning needs a picklable ``fn``: a
    module-level function or a partial of one."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(fn, items)


def _ground_truth_worker(path_str: str) -> tuple[str, dict]:
    inst = _load_instance(Path(path_str))
    return inst.name, ground_truth(inst)


def cmd_ground_truth(args: argparse.Namespace) -> int:
    files = _instance_files(Path(args.instances))
    if not files:
        print(f"no instance files under {args.instances}", file=sys.stderr)
        return EXIT_CONFIG
    results: dict[str, dict] = {}
    for name, gt in _map(_ground_truth_worker, [str(f) for f in files], args.workers):
        results[name] = gt
        print(f"{name}: {gt['status']} {gt.get('objective', '')}")
    failures = sum(1 for gt in results.values() if gt["status"] not in ("optimal", "infeasible"))
    Path(args.out).write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote ground truth for {len(results)} instances to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _provider_config(path: str | None) -> LlmConfig:
    """The ``--provider`` file's settings over ``LlmConfig``'s defaults."""
    return REPLAY_CONFIG if path is None else read_settings(LlmConfig, path, "provider")


def _build_client(args: argparse.Namespace, config: LlmConfig) -> LlmClient:
    if args.seed_fixtures:
        return LlmClient(config, RecordingTransport(args.llm_replay, HttpTransport(config)))
    if args.llm_replay:
        return LlmClient(config, ReplayTransport(args.llm_replay))
    return LlmClient(config, HttpTransport(config))


def _run_worker(path: Path, args: argparse.Namespace, config: PipelineConfig,
                llm_config: LlmConfig) -> tuple[str, str]:
    inst = _load_instance(path)
    suffix = ".scenario.txt" if args.format == SCHEMA_BASED else ".full.txt"
    prompt_path = path.with_name(path.stem + suffix)
    if prompt_path.exists():
        problem = prompt_path.read_text(encoding="utf-8")
    else:
        problem = render_prompt(inst, args.format)
    client = _build_client(args, llm_config)
    result = run_instance(
        inst, problem, args.format, client,
        config=config, run_dir=Path(args.out) / inst.name)
    return inst.name, result.status


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = (read_settings(PipelineConfig, args.config, "configuration")
                  if args.config else DEFAULT_CONFIG).override(
            max_regenerations=args.budget, repair_budget=args.budget)
        llm_config = _provider_config(args.provider)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.provider is None and not args.llm_replay:
        raise ConfigError("--provider or --llm-replay required")
    if args.seed_fixtures and not (args.provider and args.llm_replay):
        # Live replies need a provider, and recording needs a store.
        raise ConfigError("--seed-fixtures requires --provider and --llm-replay")

    instances_dir = Path(args.instances)
    files = _instance_files(instances_dir)
    files = files[: args.limit]
    if not files:
        print(f"no instance files under {args.instances}", file=sys.stderr)
        return EXIT_CONFIG

    Path(args.out).mkdir(parents=True, exist_ok=True)
    run_one = functools.partial(
        _run_worker, args=args, config=config, llm_config=llm_config)
    statuses: dict[str, str] = {}
    try:
        # Candidates fork from the worker, and forking a threaded process can
        # deadlock the child: so parallel workers are processes, not threads.
        for name, status in _map(run_one, files, args.workers):
            statuses[name] = status
            print(f"{name}: {status}")
    except LlmError as exc:
        print(f"llm failure: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    failed = sum(1 for s in statuses.values() if s == "failed")
    print(f"completed {len(statuses)} instances ({failed} failed)")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    ground = _read_json(Path(args.ground_truth))
    if not isinstance(ground, dict):
        raise ConfigError(f"{args.ground_truth}: expected a mapping of instance names")
    for name, gt in ground.items():
        if not (isinstance(gt, dict) and isinstance(gt.get("status"), str)):
            raise ConfigError(
                f"{args.ground_truth}: entry {name} is not a mapping with a string status")
        if not is_objective(gt.get("objective")):
            raise ConfigError(f"{args.ground_truth}: entry {name}: objective is not a number: "
                              f"{gt['objective']!r}")
    result_files = sorted(results_dir.glob("*/result.json"))
    if not result_files:
        print(f"no result.json files under {results_dir}", file=sys.stderr)
        return EXIT_CONFIG

    records = []
    missing = 0
    for rf in result_files:
        res = _read_json(rf)
        name = res.get("instance") if isinstance(res, dict) else None
        if not isinstance(name, str):
            raise ConfigError(f"{rf}: no instance name")
        if not is_objective(res.get("objective")):
            raise ConfigError(f"{rf}: instance {name}: objective is not a number: "
                              f"{res['objective']!r}")
        gt = ground.get(name)
        if gt is None:
            missing += 1
            continue
        _, family = split_instance_name(name)
        records.append(build_record(
            name, family,
            executed=bool(res.get("executed")),
            pred_status=normalize_pred_status(res.get("status_code"), res.get("objective")),
            y_pred=res.get("objective"),
            gt_status=gt["status"],
            y_ref=gt.get("objective"),
        ))
    write_records(records, args.out)
    print(f"wrote {len(records)} evaluation records to {args.out}")
    if missing:
        print(f"{missing} results had no ground truth entry", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    records = read_records(args.eval)
    if not records:
        print("no records to report", file=sys.stderr)
        return EXIT_CONFIG
    print(render_table(aggregate(records)), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optverify",
        description="Benchmark generation and behavioral verification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="emit the full benchmark suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_bench)

    p = sub.add_parser("ground-truth", help="solve reference models for all instances")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_ground_truth)

    p = sub.add_parser("run", help="run the verification pipeline per instance")
    p.add_argument("--instances", required=True)
    p.add_argument("--format", choices=PROMPT_FORMATS, default=SCHEMA_BASED)
    p.add_argument("--provider", help="provider config JSON file")
    p.add_argument("--budget", type=int, help="regeneration and repair budget")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", help="pipeline config JSON file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--llm-replay", help="fixture directory of recorded replies")
    p.add_argument("--seed-fixtures", action="store_true",
                   help="record live replies into the --llm-replay directory")
    p.add_argument("--limit", type=int, help="run only the first N instances")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("evaluate", help="judge run results against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="render the per-family table")
    p.add_argument("--eval", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("workers", "limit"):
            if getattr(args, name, None) is not None and getattr(args, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        return args.fn(args)
    except (ConfigError, SchemaError, BackendError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
