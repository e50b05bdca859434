r"""Timed fits and updates, alternating in a process of their own.

Run by ``run.py``; inputs are already on disk.  Each round fits and saves
bundle A, then loads A, folds in the late day and saves bundle B.  Prints
one JSON line: the seconds of every fit and every update, each from the
first public call to the bundle on disk, and the peak RSS after the first
fit, which is a fit's peak in a fresh process.  With ``--spans PATH`` the
calls into each layer are wrapped in spans, written to PATH at the end.

    python3 e2ebench/fitproc.py csv  --rounds R --trace T --stations S \
        --late CSV --fit-bundle A --update-bundle B
    python3 e2ebench/fitproc.py city --rounds R --inputs PICKLE \
        --late CSV --fit-bundle A --update-bundle B
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder  # noqa: E402

CHUNK_SIZE = 200_000
CSV_DAYS = 7


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer a fit or update crosses."""
    import repro.cli as cli
    import repro.core.model as model
    import repro.io.persist as persist
    from repro.core.pipeline import Pipeline
    from repro.core.stages import (
        ClusterStage, DecomposeStage, LabelStage, SpectralStage, TuneStage, VectorizeStage,
    )

    recorder.patch(cli, "iter_record_batches_csv", "ingest.parse")
    recorder.patch(cli, "read_stations_csv", "ingest.stations")
    recorder.patch(cli, "clean_batch", "ingest.clean")
    recorder.patch(model, "aggregate_batches", "vectorize.scatter")
    recorder.patch(model, "scatter_batch_into", "vectorize.scatter")
    recorder.patch(Pipeline, "run", "core.pipeline")
    for stage, name in ((VectorizeStage, "vectorize.stage"), (ClusterStage, "cluster.stage"),
                        (TuneStage, "cluster.tune"), (LabelStage, "geo.label"),
                        (SpectralStage, "spectral.stage"), (DecomposeStage, "decompose.stage")):
        recorder.patch(stage, "run", name)
        recorder.patch(stage, "fingerprint", "core.fingerprint")
    recorder.patch(persist, "save_model", "io.save")
    recorder.patch(persist, "load_model", "io.load")


def count_records() -> dict[str, int]:
    """Count parsed and kept records where parse and clean hand them over."""
    import repro.cli as cli

    parse, clean = cli.iter_record_batches_csv, cli.clean_batch
    counts = {"parsed": 0, "kept": 0}

    def counted_parse(*args, **kwargs):
        for batch in parse(*args, **kwargs):
            counts["parsed"] += len(batch)
            yield batch

    def counted_clean(batch, *args, **kwargs):
        cleaned, report = clean(batch, *args, **kwargs)
        counts["kept"] += len(cleaned)
        return cleaned, report

    cli.iter_record_batches_csv, cli.clean_batch = counted_parse, counted_clean
    return counts


def run_cli(argv: list[str]) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"repro {argv[0]} exited with {status}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs", choices=("csv", "city"))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace")
    parser.add_argument("--stations")
    parser.add_argument("--inputs", dest="city_inputs")
    parser.add_argument("--late", required=True)
    parser.add_argument("--fit-bundle", required=True)
    parser.add_argument("--update-bundle", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import repro.cli  # noqa: F401 - import cost stays out of the timed calls
    from repro import ModelConfig, TrafficPatternModel

    recorder = SpanRecorder()
    counts = {}
    if args.spans:
        instrument(recorder)
        counts = count_records()
    city_inputs = None
    if args.inputs == "city":
        with open(args.city_inputs, "rb") as handle:
            city_inputs = pickle.load(handle)
    fit_job = f"{args.inputs}-fit"

    def fit() -> None:
        if args.inputs == "csv":
            run_cli(["fit", "--input", args.trace, "--stations", args.stations,
                     "--days", str(CSV_DAYS), "--chunk-size", str(CHUNK_SIZE),
                     "--save", args.fit_bundle])
        else:
            traffic, city = city_inputs
            model = TrafficPatternModel(ModelConfig())
            model.fit(traffic, city=city)
            model.save(args.fit_bundle)

    def update() -> None:
        run_cli(["update", "--model", args.fit_bundle, "--input", args.late,
                 "--chunk-size", str(CHUNK_SIZE), "--save", args.update_bundle])

    def timed(job: str, call) -> float:
        # Garbage of the previous call is collected before the clock starts.
        gc.collect()
        start = time.perf_counter()
        with recorder.span(job) if args.spans else contextlib.nullcontext():
            call()
        return time.perf_counter() - start

    out: dict = {"fit_s": [], "update_s": []}
    for _ in range(args.rounds):
        out["fit_s"].append(timed(fit_job, fit))
        if "peak_rss_mb" not in out:
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["update_s"].append(timed("update", update))

    if args.spans:
        recorder.restore()
        out["counts"] = counts
        recorder.dump(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
