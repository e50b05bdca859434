"""The workloads.  Every run covers the whole path — generated inputs, fit
and save, update and save, then serving with reloads — and a workload
decides which part carries the weight: a streamed CSV fit with cache-friendly
lookups, or an in-memory city fit with batched queries beside hot-swaps."""

from __future__ import annotations

import hashlib
import json
import pickle
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from arith import percentile, supported
from serving import ROOT, Oracle, ServeSpec, mismatches, serve_session
from spans import SpanRecorder, coverage, self_time_by_name

HERE = Path(__file__).resolve().parent
DAY_S = 86_400.0
LATE_DAY_RECORDS = 60_000
CSV_USERS = 1000
#: sessions of the CSV trace that make its late part, about its last day; a
#: fixed count, so every seed gives the update the same work
CSV_LATE_RECORDS = 28_000
#: input generations (or server starts) per run; setup_s is their median
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str  # "csv": a session trace written as CSV; "city": an in-memory city
    towers: int
    days: int
    serve: ServeSpec
    #: what setup_s times: "inputs" (input generation) or "server" (server
    #: start to first healthy answer plus warm-up)
    setup: str
    #: fit-then-update rounds per run, alternating in one process.  fit_s and
    #: update_s are the fastest round's: on a shared host, other tenants make
    #: a round slower for seconds at a time and never faster, so the fastest
    #: of many rounds is the steadiest estimate of the program's own cost.
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("csv_fit", "a CSV trace streamed through parse, clean and scatter carries the "
                 "fit and the day-7 update; Zipf-skewed GETs then repeat into the result cache",
                 "csv", 40, 7,
                 ServeSpec("lookup", low=500.0, high=2000.0, limit_ms=25.0),
                 "inputs", rounds=12),
        Workload("serve_swap", "a 300-tower 28-day city fit carries cluster, tune, label, "
                 "spectral and save; 16-tower POSTs then run beside a reload every 3 s",
                 "city", 300, 28,
                 ServeSpec("swap", low=200.0, high=400.0, limit_ms=100.0, reload_every_s=3.0),
                 "server", rounds=8),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_csv_inputs(work: Path, w: Workload, seed: int) -> tuple[dict, dict]:
    """A generated session trace, split by start time into an early part and
    its last ``CSV_LATE_RECORDS`` sessions, about day 7.

    Also returns the two record batches and the tower ids the CSV files hold.
    """
    from repro import ScenarioConfig, generate_scenario
    from repro.ingest.loader import write_records_csv, write_stations_csv
    from repro.ingest.records import BaseStationInfo

    scenario = generate_scenario(ScenarioConfig(
        num_towers=w.towers, num_users=CSV_USERS, num_days=w.days, seed=seed,
        generate_sessions=True, sessions_as_batch=True))
    batch = scenario.session_batch()
    late = batch.start_s >= np.sort(batch.start_s)[-CSV_LATE_RECORDS]
    parts = {"early": batch.take(np.flatnonzero(~late)), "late": batch.take(np.flatnonzero(late)),
             "tower_ids": [t.tower_id for t in scenario.city.towers]}
    write_records_csv(parts["early"], work / "early.csv")
    write_records_csv(parts["late"], work / "late.csv")
    write_stations_csv([BaseStationInfo(t.tower_id, t.address) for t in scenario.city.towers],
                       work / "stations.csv")
    return {"records": len(batch), "late_records": int(late.sum())}, parts


def late_day_batch(tower_ids: np.ndarray, days: int, seed: int):
    """A synthetic last day of session records for the towers of a city."""
    from repro.ingest.batch import NETWORK_NAMES, RecordBatch

    rng = np.random.default_rng([seed, 7])
    n = LATE_DAY_RECORDS
    start = (days - 1) * DAY_S + rng.uniform(0.0, DAY_S - 3600.0, n)
    return RecordBatch(
        user_id=rng.integers(0, 50_000, n),
        tower_id=rng.choice(tower_ids, n),
        start_s=start,
        end_s=start + rng.exponential(300.0, n),
        bytes_used=rng.lognormal(12.0, 1.5, n),
        network=rng.choice(np.asarray(NETWORK_NAMES), n),
    )


def write_city_inputs(work: Path, w: Workload, seed: int) -> tuple[dict, None]:
    """A synthetic city (traffic matrix and POI layer) and a late day of records."""
    from repro import ScenarioConfig, generate_scenario
    from repro.ingest.loader import write_records_csv

    scenario = generate_scenario(ScenarioConfig(num_towers=w.towers, num_days=w.days,
                                                seed=seed))
    with (work / "city.pkl").open("wb") as handle:
        pickle.dump((scenario.traffic, scenario.city), handle)
    write_records_csv(late_day_batch(scenario.traffic.tower_ids, w.days, seed),
                      work / "late.csv")
    traffic = np.ascontiguousarray(scenario.traffic.traffic)
    return {"traffic_sha256": hashlib.sha256(traffic.tobytes()).hexdigest()}, None


def make_inputs(work: Path, w: Workload, seed: int) -> tuple[dict, dict | None]:
    return (write_csv_inputs if w.inputs == "csv" else write_city_inputs)(work, w, seed)


def input_hashes(work: Path, info: dict) -> dict:
    hashes = {p.name: sha256_file(p) for p in sorted(work.glob("*.csv"))}
    if "traffic_sha256" in info:
        hashes["traffic_matrix"] = info["traffic_sha256"]
    return hashes


# ----------------------------------------------------------------------
# Fit and update, each in a process of its own
# ----------------------------------------------------------------------


def run_fitproc(w: Workload, work: Path, bundle_a: Path, bundle_b: Path, rounds: int,
                spans: Path | None = None) -> dict:
    """``rounds`` fits (to ``bundle_a``) alternating with updates (to ``bundle_b``)."""
    argv = [sys.executable, str(HERE / "fitproc.py"), w.inputs, "--rounds", str(rounds),
            "--late", str(work / "late.csv"),
            "--fit-bundle", str(bundle_a), "--update-bundle", str(bundle_b)]
    if w.inputs == "csv":
        argv += ["--trace", str(work / "early.csv"), "--stations", str(work / "stations.csv")]
    else:
        argv += ["--inputs", str(work / "city.pkl")]
    if spans is not None:
        argv += ["--spans", str(spans)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"fit and update failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def check_update_equals_full_fit(parts: dict, updated: Path) -> bool:
    """The updated bundle equals one fit over the concatenated trace.

    The reference feeds the generated records, in the chunks the CSV reader
    yields (the early part, then the late one), through one serial fit: the
    contract ``TrafficPatternModel.update`` documents.  Built from memory, it also
    checks that the CSV files were read back exactly.
    """
    from repro import TrafficPatternModel
    from repro.ingest.dedup import clean_batch
    from repro.utils.timeutils import TimeWindow
    from fitproc import CHUNK_SIZE, CSV_DAYS

    model = TrafficPatternModel.load(updated)
    chunks = (clean_batch(chunk)[0] for name in ("early", "late")
              for chunk in parts[name].iter_chunks(CHUNK_SIZE))
    full = TrafficPatternModel(model.config).fit_batches(
        chunks, TimeWindow(num_days=CSV_DAYS), parts["tower_ids"])
    loaded = model.result
    return (np.array_equal(full.vectorized.raw.traffic, loaded.vectorized.raw.traffic)
            and np.array_equal(full.labels, loaded.labels))


def check_city_patterns(bundle: Path) -> bool:
    """The city fit finds five patterns, each labelled with a region."""
    from repro import TrafficPatternModel

    result = TrafficPatternModel.load(bundle).result
    if result.num_clusters != 5 or result.labeling is None:
        return False
    return all(result.region_of_cluster(c) is not None for c in range(5))


def quality(bundle: Path) -> dict:
    """Model-quality signals; a change that claims speed must not move them."""
    from repro import TrafficPatternModel

    model = TrafficPatternModel.load(bundle)
    result = model.result
    out = {"cluster.num_clusters": float(result.num_clusters)}
    curve = result.tuning_curve
    out["cluster.db_score"] = float(curve.best()[1]) if curve is not None else 0.0
    if result.representatives is not None:
        batch = model.decompose_all()
        out["decompose.residual_p50"] = float(np.percentile(batch.residuals, 50))
        out["decompose.residual_p99"] = float(np.percentile(batch.residuals, 99))
        out["decompose.hull_fraction"] = float(batch.interior_mask().mean())
    else:
        out.update({"decompose.residual_p50": 0.0, "decompose.residual_p99": 0.0,
                    "decompose.hull_fraction": 0.0})
    return out


# ----------------------------------------------------------------------
# Per-layer numbers from spans
# ----------------------------------------------------------------------

#: span name -> per-layer metric; the time is the spans' total self time.
SELF_TIME_METRICS = {
    "ingest.parse": "ingest.parse_s",
    "ingest.clean": "ingest.clean_s",
    "vectorize.scatter": "vectorize.scatter_s",
    "vectorize.stage": "vectorize.stage_s",
    "core.fingerprint": "core.fingerprint_s",
    "cluster.stage": "cluster.stage_s",
    "cluster.tune": "cluster.tune_s",
    "geo.label": "geo.label_s",
    "spectral.stage": "spectral.stage_s",
    "decompose.stage": "decompose.stage_s",
    "io.save": "io.save_s",
    "io.load": "io.load_s",
}
RUNNERS = frozenset({"core.pipeline"})


def layer_metrics(spans: list[dict]) -> dict:
    totals = self_time_by_name(spans)
    return {metric: totals.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}


def root_coverage(spans: list[dict], root: str) -> float:
    (root_span,) = [s for s in spans if s["name"] == root and s["parent"] is None]
    return coverage(spans, root_span["id"], RUNNERS)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run workload ``w`` once; returns metrics, checks and provenance data."""
    checks: dict[str, bool] = {}
    attempted = failed = 0

    def check(ok: bool, name: str) -> None:
        """A failed check counts as a failed operation (the fit, update or request)."""
        nonlocal failed
        failed += not ok
        checks[name] = checks.get(name, True) and ok

    phases: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    setup_runs = []
    for _ in range(SETUP_REPEATS if w.setup == "inputs" else 1):
        start = time.perf_counter()
        info, parts = make_inputs(work, w, seed)
        setup_runs.append(time.perf_counter() - start)
    hashes = input_hashes(work, info)
    lap("inputs")

    fit_job = f"{w.inputs}-fit"
    bundle_a, bundle_b = work / "bundle_fit", work / "bundle_update"
    timed = run_fitproc(w, work, bundle_a, bundle_b, w.rounds)
    attempted += 2 * w.rounds
    fit_s = min(timed["fit_s"])
    update_s = min(timed["update_s"])
    lap("fits")
    if w.inputs == "csv":
        check(check_update_equals_full_fit(parts, bundle_b), "update_equals_full_fit")
    else:
        check(check_city_patterns(bundle_a), "five_labelled_patterns")
    lap("fit_checks")

    per_layer: dict[str, float] = {}
    spans: dict[str, list[dict]] = {}
    recorder = SpanRecorder() if trace else None
    if trace:
        traced = run_fitproc(w, work, work / "bundle_traced", work / "bundle_traced_update", 1,
                             spans=work / "traced.spans.json")
        traced_spans = json.loads((work / "traced.spans.json").read_text())["spans"]
        per_layer.update(layer_metrics(traced_spans))
        counts = traced["counts"]
        per_layer["ingest.records"] = float(counts["parsed"])
        per_layer["ingest.kept_ratio"] = counts["kept"] / counts["parsed"] if counts["parsed"] else 0.0
        per_layer["core.stages_reused"] = float(len(
            json.loads((work / "bundle_traced_update" / "manifest.json").read_text())
            ["extras"].get("stages_reused", [])))
        per_layer["trace.fit_coverage"] = root_coverage(traced_spans, fit_job)
        per_layer["trace.update_coverage"] = root_coverage(traced_spans, "update")
        # Against the first untraced round, which is as cold as the traced one.
        per_layer["trace.fit_overhead_s"] = traced["fit_s"][0] - timed["fit_s"][0]
        per_layer["trace.update_overhead_s"] = traced["update_s"][0] - timed["update_s"][0]
        per_layer["io.bundle_mb"] = sum(
            p.stat().st_size for p in bundle_a.iterdir()) / 2**20
        per_layer.update(quality(bundle_a))

    lap("traced_fits")
    tower_ids = [int(t) for t in np.load(bundle_a / "arrays.npz")["raw.tower_ids"]]
    serve = serve_session(
        w.serve, [bundle_a, bundle_b], tower_ids, seed, seconds, labelled=w.inputs == "city",
        starts=SETUP_REPEATS if w.setup == "server" else 1,
        recorder=recorder, spans_path=work / "server.spans.json" if trace else None,
    )
    lap("serve")
    oracles = [Oracle(bundle_a), Oracle(bundle_b)]
    for report in serve["reports"].values():
        attempted += report.attempted
        failed += report.failed
    wrong = []
    for kind, towers, body in serve["sampled"]:
        rows = mismatches(kind, towers, body, oracles)
        check(not rows, "served_answers")
        wrong += rows
    attempted += serve["reloads"] + serve["reload_errors"]
    failed += serve["reload_errors"]
    checks["reloads_without_transport_errors"] = (
        serve["transport_errors"] == 0 and serve["reload_errors"] == 0)

    lap("serve_checks")
    setup_s = statistics.median(setup_runs if w.setup == "inputs" else serve["setup_runs_s"])
    end_to_end = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "update_s": update_s,
        # The fitting process's: the server's peak depends on whether a
        # reload overlaps a batch, so it is only recorded with the serving.
        "peak_rss_mb": timed["peak_rss_mb"],
        "p50_ms.low": serve["p50_ms.low"],
        "p99_ms.low": serve["p99_ms.low"],
        "p50_ms.high": serve["p50_ms.high"],
        "p99_ms.high": serve["p99_ms.high"],
        "max_rate_rps": serve["max_rate_rps"],
        "reload_s": serve["reload_s"],
    }
    if trace:
        server_spans = json.loads((work / "server.spans.json").read_text())["spans"]
        per_layer["io.load_s"] = statistics.median(
            s["end"] - s["start"] for s in traced_spans + server_spans if s["name"] == "io.load")
        for kind in ("pattern", "region", "decompose", "post_decompose", "post_region"):
            # Kinds a bundle cannot answer (regions of a fit without a city)
            # report 0.
            values = serve["kind_latencies_ms"].get(kind, [])
            per_layer[f"serve.{kind}.p50_ms"] = percentile(values, 50.0) if values else 0.0
            per_layer[f"serve.{kind}.p99_ms"] = (
                percentile(values, 99.0) if supported(len(values), 99.0) else 0.0)
        per_layer["serve.cpu_ms_per_req"] = serve["cpu_ms_per_req"]
        per_layer["serve.cache_hit_ratio"] = serve["cache_hit_ratio"] or 0.0
        per_layer["serve.batch_mean_size"] = serve["batch_mean_size"] or 0.0
        late = serve["late_ms"]
        per_layer["loadgen.late_ms_p99"] = (
            percentile(late, 99.0) if supported(len(late), 99.0) else 0.0)
        spans = {"fit_update": traced_spans, "server": server_spans,
                 "client": recorder.spans}

    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setup_runs_s": setup_runs if w.setup == "inputs" else serve["setup_runs_s"],
        "rounds_s": {"fit": timed["fit_s"], "update": timed["update_s"]},
        "inputs": {"info": info, "sha256": hashes},
        "spans": spans,
        "phases_s": phases,
        "serving": {k: v for k, v in serve.items()
                    if k not in ("reports", "sampled", "kind_latencies_ms", "late_ms")},
        "wrong_answers": wrong[:5],
    }
