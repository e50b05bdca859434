"""Ingest→aggregate throughput — scalar record objects vs columnar batches.

Times the full cleaning + slot-split aggregation path on a synthetic
corrupted trace in both representations:

* **scalar** — ``clean_records`` + ``aggregate_records`` over
  ``TrafficRecord`` objects (the reference implementation);
* **columnar** — ``clean_batch`` + ``aggregate_batch`` over one
  ``RecordBatch`` (the vectorized data plane).

Emits a records/sec table plus a JSON summary and asserts the columnar path
is at least ``BENCH_INGEST_MIN_SPEEDUP``× faster, the matrices agree to
float tolerance, and the total volume is conserved exactly.

A second case writes the same trace as CSV and reads it back with the
chunked reader (``iter_record_batches_csv``, bulk parse per chunk) and with
the frozen row-loop reader in ``tests/oracles/csv_reader.py``.  It asserts
bit-identical batches and a speedup of at least
``BENCH_INGEST_CSV_MIN_SPEEDUP``× over the oracle.

The trace size is configurable so CI can run a quick smoke while local runs
exercise the 1M+ record scale::

    PYTHONPATH=src python -m pytest benchmarks/bench_ingest_throughput.py -s
    BENCH_INGEST_RECORDS=50000 PYTHONPATH=src python -m pytest \
        benchmarks/bench_ingest_throughput.py -s
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import print_section
from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch, clean_records
from repro.ingest.loader import DEFAULT_CHUNK_SIZE, iter_record_batches_csv, write_records_csv
from repro.synth.noise import LogCorruptionConfig, corrupt_batch
from repro.utils.timeutils import SLOT_SECONDS, TimeWindow
from repro.vectorize.aggregate import aggregate_batch, aggregate_records
from repro.viz.tables import format_table
from tests.oracles.csv_reader import iter_record_batches_csv as oracle_iter_record_batches_csv

RECORD_COUNT = int(os.environ.get("BENCH_INGEST_RECORDS", "1000000"))
MIN_SPEEDUP = float(os.environ.get("BENCH_INGEST_MIN_SPEEDUP", "10"))
CSV_MIN_SPEEDUP = float(os.environ.get("BENCH_INGEST_CSV_MIN_SPEEDUP", "2.5"))
NUM_TOWERS = 200
WINDOW = TimeWindow(num_days=7)


def build_trace(num_records: int) -> RecordBatch:
    """Build a corrupted synthetic trace directly in columnar form."""
    rng = np.random.default_rng(2015)
    starts = rng.uniform(0, WINDOW.num_seconds, size=num_records)
    durations = rng.exponential(0.6 * SLOT_SECONDS, size=num_records)
    # a slice of multi-slot and zero-duration records keeps every
    # slot-split branch on the hot path
    durations[rng.random(num_records) < 0.1] *= 8.0
    durations[rng.random(num_records) < 0.05] = 0.0
    clean = RecordBatch(
        user_id=rng.integers(0, 50_000, size=num_records),
        tower_id=rng.integers(0, NUM_TOWERS, size=num_records),
        start_s=starts,
        end_s=np.minimum(starts + durations, float(WINDOW.num_seconds)),
        bytes_used=rng.lognormal(9.0, 1.0, size=num_records),
        network=np.where(rng.random(num_records) < 0.7, 1, 0).astype(np.uint8),
    )
    corrupted, _ = corrupt_batch(clean, LogCorruptionConfig(), rng=rng)
    return corrupted


def run_comparison():
    trace_batch = build_trace(RECORD_COUNT)
    trace_records = trace_batch.to_records()  # conversion excluded from timing
    n = len(trace_batch)

    # Warm both paths on a small slice (page faults, ufunc setup) so the
    # timed section measures steady-state throughput.
    warm = trace_batch.take(np.arange(min(50_000, n)))
    aggregate_batch(clean_batch(warm)[0], WINDOW)
    aggregate_records(clean_records(warm.to_records())[0], WINDOW)

    start = time.perf_counter()
    scalar_clean, scalar_report = clean_records(trace_records)
    scalar_matrix = aggregate_records(scalar_clean, WINDOW)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    columnar_clean, columnar_report = clean_batch(trace_batch)
    columnar_matrix = aggregate_batch(columnar_clean, WINDOW)
    columnar_seconds = time.perf_counter() - start

    assert columnar_report == scalar_report, "cleaning reports diverged"
    assert np.array_equal(scalar_matrix.tower_ids, columnar_matrix.tower_ids)
    assert np.allclose(
        scalar_matrix.traffic, columnar_matrix.traffic, rtol=1e-9, atol=0.0
    ), "columnar matrix diverged from the scalar reference"
    # total volume is conserved exactly: the scatter accumulates in the same
    # order as the scalar loop
    assert columnar_matrix.traffic.sum() == scalar_matrix.traffic.sum()

    return {
        "num_records": n,
        "scalar_seconds": scalar_seconds,
        "columnar_seconds": columnar_seconds,
        "scalar_records_per_sec": n / scalar_seconds,
        "columnar_records_per_sec": n / columnar_seconds,
        "speedup": scalar_seconds / columnar_seconds,
    }


def test_ingest_throughput(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    print_section("Ingest→aggregate throughput — scalar records vs columnar batch")
    print(
        format_table(
            ["path", "seconds", "records/sec"],
            [
                [
                    "scalar",
                    round(results["scalar_seconds"], 3),
                    f"{results['scalar_records_per_sec']:,.0f}",
                ],
                [
                    "columnar",
                    round(results["columnar_seconds"], 3),
                    f"{results['columnar_records_per_sec']:,.0f}",
                ],
            ],
        )
    )
    print(f"\nspeedup: {results['speedup']:.1f}x on {results['num_records']:,} records")

    summary = {
        "num_towers": NUM_TOWERS,
        "num_days": WINDOW.num_days,
        "min_speedup_required": MIN_SPEEDUP,
        **results,
    }
    print("\nJSON summary:")
    print(json.dumps(summary, indent=2, sort_keys=True))

    assert results["speedup"] >= MIN_SPEEDUP, (
        f"columnar ingest is only {results['speedup']:.1f}x faster than scalar "
        f"on {results['num_records']:,} records; expected >= {MIN_SPEEDUP}x"
    )


def run_csv_comparison(path):
    write_records_csv(build_trace(RECORD_COUNT), path)
    path.read_bytes()  # both timed reads start from a warm page cache

    def timed_read(reader, repeats=3):
        # The fastest of a few reads: contention on a shared host only adds time.
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            batches = list(reader(path, chunk_size=DEFAULT_CHUNK_SIZE))
            seconds.append(time.perf_counter() - start)
        return batches, min(seconds)

    oracle_batches, oracle_seconds = timed_read(oracle_iter_record_batches_csv)
    bulk_batches, bulk_seconds = timed_read(iter_record_batches_csv)

    assert len(bulk_batches) == len(oracle_batches)
    for bulk, oracle in zip(bulk_batches, oracle_batches):
        for bulk_column, oracle_column in zip(bulk.columns(), oracle.columns()):
            assert bulk_column.dtype == oracle_column.dtype
            assert bulk_column.tobytes() == oracle_column.tobytes(), (
                "bulk CSV parse diverged from the row-loop oracle"
            )

    n = sum(len(batch) for batch in bulk_batches)
    return {
        "num_records": n,
        "file_mb": path.stat().st_size / 2**20,
        "oracle_seconds": oracle_seconds,
        "bulk_seconds": bulk_seconds,
        "oracle_records_per_sec": n / oracle_seconds,
        "bulk_records_per_sec": n / bulk_seconds,
        "speedup": oracle_seconds / bulk_seconds,
    }


def test_csv_parse_throughput(benchmark, tmp_path):
    results = benchmark.pedantic(
        run_csv_comparison, args=(tmp_path / "trace.csv",), rounds=1, iterations=1
    )

    print_section("CSV parse throughput — row-loop oracle vs bulk parse")
    print(
        format_table(
            ["reader", "seconds", "records/sec"],
            [
                [
                    "row loop (oracle)",
                    round(results["oracle_seconds"], 3),
                    f"{results['oracle_records_per_sec']:,.0f}",
                ],
                [
                    "bulk parse",
                    round(results["bulk_seconds"], 3),
                    f"{results['bulk_records_per_sec']:,.0f}",
                ],
            ],
        )
    )
    print(f"\nspeedup: {results['speedup']:.1f}x on {results['num_records']:,} records")

    summary = {"min_speedup_required": CSV_MIN_SPEEDUP, **results}
    print("\nJSON summary:")
    print(json.dumps(summary, indent=2, sort_keys=True))

    assert results["speedup"] >= CSV_MIN_SPEEDUP, (
        f"bulk CSV parse is only {results['speedup']:.1f}x faster than the row loop "
        f"on {results['num_records']:,} records; expected >= {CSV_MIN_SPEEDUP}x"
    )
