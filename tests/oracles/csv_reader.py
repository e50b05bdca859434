"""The row-at-a-time chunked CSV reader, frozen as a test oracle.

This is the reader :func:`repro.ingest.loader.iter_record_batches_csv` used
before its bulk parse: a ``csv.reader`` row loop that collects each chunk as
lists of strings and converts the six columns with one list comprehension
each.  Tests and benchmarks compare the production reader's batches and its
error messages against this one.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.loader import DEFAULT_CHUNK_SIZE, TraceFormatError
from repro.ingest.records import TrafficRecord

_RECORD_FIELDS = ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network")


def _raise_locating_bad_row(
    path: Path,
    numbered_rows: list[tuple[int, list[str]]],
    error: Exception,
) -> NoReturn:
    for line_number, row in numbered_rows:
        try:
            TrafficRecord(
                user_id=int(row[0]),
                tower_id=int(row[1]),
                start_s=float(row[2]),
                end_s=float(row[3]),
                bytes_used=float(row[4]),
                network=row[5],
            )
        except (ValueError, TypeError) as row_error:
            raise TraceFormatError(f"{path}:{line_number}: {row_error}") from row_error
    first = numbered_rows[0][0]
    last = numbered_rows[-1][0]
    raise TraceFormatError(f"{path}:{first}-{last}: {error}") from error


def _batch_from_csv_rows(
    path: Path, numbered_rows: list[tuple[int, list[str]]]
) -> RecordBatch:
    rows = [row for _, row in numbered_rows]
    try:
        return RecordBatch(
            user_id=np.array([row[0] for row in rows]).astype(np.int64),
            tower_id=np.array([row[1] for row in rows]).astype(np.int64),
            start_s=np.array([row[2] for row in rows], dtype=np.float64),
            end_s=np.array([row[3] for row in rows], dtype=np.float64),
            bytes_used=np.array([row[4] for row in rows], dtype=np.float64),
            network=np.array([row[5] for row in rows]),
        )
    except (ValueError, TypeError, OverflowError) as error:
        _raise_locating_bad_row(path, numbered_rows, error)


def iter_record_batches_csv(
    path: str | Path, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[RecordBatch]:
    """Stream a CSV trace as columnar batches of up to ``chunk_size`` records."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _RECORD_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_RECORD_FIELDS}"
            )
        pending: list[tuple[int, list[str]]] = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_RECORD_FIELDS):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}"
                )
            pending.append((line_number, row))
            if len(pending) >= chunk_size:
                yield _batch_from_csv_rows(path, pending)
                pending = []
        if pending:
            yield _batch_from_csv_rows(path, pending)
