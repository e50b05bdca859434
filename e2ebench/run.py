"""End-to-end benchmark of the repro-traffic system.

    python3 e2ebench/run.py --workload csv_fit --seed 1 --seconds 8 --trace 0

Runs one workload once over the whole path — inputs generated from
``--seed``, fit and save, update and save, then open-loop serving with
reloads — and checks the answers.  ``--seconds`` bounds how long the rate
ladder climbs.  Prints every metric with its unit, then, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
repeats the fit and update with spans around each layer's public functions
and reports the per-layer metrics, including the tracing overhead.  A result
file with provenance (seed, input hashes, host, source) goes to
``.e2ebench/results/``, with the spans of a traced run beside it.

Exits 0 when every check passed, 1 when a correctness check failed and 2
when the program or its inputs cannot be run at all.

    python3 e2ebench/run.py --self-test    # the benchmark's own unit tests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def source_provenance() -> dict:
    """The commit when the checkout is a git work tree, and a hash of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def host() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        import unittest

        suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
        return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1

    # A shell that starts this in the background ignores SIGINT, and an
    # ignored signal stays ignored in the server subprocess, which then could
    # not be stopped cleanly with it.  A handler here is reset to the default
    # in every child.  SIGTERM unwinds through the same clean-up.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as err:
        return fail(f"cannot import the program: {err}")

    from workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    state = ROOT / ".e2ebench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.time()
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = outcome["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None or not math.isfinite(value):
            return fail(f"{args.workload} measured no finite {entry['name']}: {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = all(outcome["checks"].values())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "correct": correct,
        "checks": outcome["checks"],
        "wrong_answers": outcome["wrong_answers"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "end_to_end": outcome["end_to_end"],
        "per_layer": outcome["per_layer"],
        "setup_runs_s": outcome["setup_runs_s"],
        "rounds_s": outcome["rounds_s"],
        "phases_s": outcome["phases_s"],
        "serving": outcome["serving"],
        "provenance": {"seed": args.seed, "inputs": outcome["inputs"], "host": host(),
                       "source": source_provenance()},
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    result_path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    if outcome["spans"]:
        result_path.with_suffix(".spans.json").write_text(json.dumps(outcome["spans"]) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:<13} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, ok in outcome["checks"].items():
        print(f"{args.workload:<13} check {name:<22} {'ok' if ok else 'FAILED'}")
    print(f"{args.workload:<13} results written to {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
