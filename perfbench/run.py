"""The repository's benchmark: served estimates, end to end and layer by layer.

Run one workload::

    python3 perfbench/run.py --workload sweep-lws --seed 1 --seconds 20 --trace 0

or every workload in turn (each in its own process)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
outside-in layer wrappers (``perfbench/layers.py``) for half of the window
and prints the per-layer metrics instead.  Every run checks its outputs and
exits non-zero when a check fails; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--self-test`` runs every workload at a tiny scale in both trace modes, with
one deliberately malformed request each, and checks that the harness counts
the bad request instead of aborting and prints every named metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_PARENT = ROOT / ".perfbench_tmp"

#: Environment switches of the program that would change what is measured.
_PROGRAM_SWITCHES = ("REPRO_OBS", "REPRO_FAULTS", "REPRO_FAULT_JOURNAL", "REPRO_DATASET_CACHE")

#: A run never reaches this; the child of ``--workload all`` is stopped here.
CHILD_TIMEOUT_SECONDS = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--inject-malformed", action="store_true",
        help="send one request with an unknown field (counted as a failure)",
    )
    parser.add_argument("--self-test", action="store_true")
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, workload: str, extra: list[str]) -> tuple[int, str]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, *extra,
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_SECONDS, check=False
        )
    except subprocess.TimeoutExpired:
        return 124, ""
    sys.stderr.write(completed.stderr)
    return completed.returncode, completed.stdout


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process; one combined result line."""
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    for name in names:
        code, stdout = _child(args, name, ["--inject-malformed"] if args.inject_malformed else [])
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] produced no result line (exit {code})")
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and code == 0
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def self_test(args: argparse.Namespace, names: list[str]) -> int:
    """Tiny-scale run of every workload in both trace modes, one bad request each."""
    from harness import END_TO_END_UNITS
    from layers import PER_LAYER_UNITS

    from specs import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [
        f"BENCHMARK.json names unknown workload {workload['name']!r}"
        for workload in declared["workloads"]
        if workload["name"] not in WORKLOADS
    ]
    for trace, units in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
        key = "per_layer" if trace else "end_to_end"
        wanted = {metric["name"]: metric["unit"] for metric in declared[key]}
        if wanted != units:
            problems.append(f"BENCHMARK.json {key} disagrees with the harness: {wanted}")
        for name in names:
            child_args = argparse.Namespace(**{**vars(args), "trace": trace, "scale": "tiny",
                                               "seconds": 1.0})
            code, stdout = _child(child_args, name, ["--inject-malformed"])
            lines = stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} trace={trace}: no result line (exit {code})")
                continue
            printed = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            if printed != units:
                problems.append(f"{name} trace={trace}: metrics/units {printed}")
            if result["failed"] != 1 or code == 0:
                problems.append(
                    f"{name} trace={trace}: expected exactly the malformed request to fail "
                    f"and a non-zero exit, got failed={result['failed']} exit={code}"
                )
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def run_one(args: argparse.Namespace) -> int:
    for switch in _PROGRAM_SWITCHES:
        os.environ.pop(switch, None)
    tmp = TMP_PARENT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # sqlite, tempfile and multiprocessing all honour these.
    for variable in ("TMPDIR", "SQLITE_TMPDIR"):
        os.environ[variable] = str(tmp)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"cannot import the program under test from {ROOT / 'src'}: {exc}",
                  file=sys.stderr)
            return 2
        import tempfile

        tempfile.tempdir = str(tmp)
        from harness import Run
        from specs import WORKLOADS

        run = Run(
            WORKLOADS[args.workload], args.seed, args.seconds, args.scale, bool(args.trace),
            ROOT, tmp, inject_malformed=args.inject_malformed,
        )
        result = run.execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    print("\n".join(result.report))
    print(result.result_line())
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from specs import WORKLOADS

    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown}; choose from {list(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args, names)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
