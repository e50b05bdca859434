"""Trace readers and writers (CSV and JSON-lines).

The paper processes unstructured operator logs on Hadoop; for the
reproduction, traces are exchanged as flat CSV or JSONL files.  Two reader
families are provided:

* record-at-a-time iterators (:func:`read_records_csv`,
  :func:`read_records_jsonl`) yielding :class:`TrafficRecord` objects — the
  compatibility path;
* chunked batch iterators (:func:`iter_record_batches_csv`,
  :func:`iter_record_batches_jsonl`) yielding columnar
  :class:`~repro.ingest.batch.RecordBatch` objects of a configurable chunk
  size — the fast path, which also bounds memory for traces larger than RAM.

The chunked CSV reader parses each chunk's raw lines in one ``np.loadtxt``
call.  A ``csv.reader`` row loop replays a chunk only when the bulk parse
rejects it, or when the chunk holds something the bulk parse does not
handle (quotes, whitespace, a lone carriage return).  The replay yields the
same batch the row loop always did, or names the bad line.

All readers are streaming and malformed lines raise
:class:`TraceFormatError` naming the file path and the offending line.
Writers accept either an iterable of records or a :class:`RecordBatch`.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn

import numpy as np

from repro.ingest.batch import NETWORK_NAMES, RecordBatch, encode_networks
from repro.ingest.records import BaseStationInfo, TrafficRecord

_RECORD_FIELDS = ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network")
_STATION_FIELDS = ("tower_id", "address", "lat", "lon")

#: Default number of records per batch for the chunked readers.
DEFAULT_CHUNK_SIZE = 100_000


class TraceFormatError(ValueError):
    """Raised when a trace file does not match the expected schema."""


def write_records_csv(
    records: Iterable[TrafficRecord] | RecordBatch, path: str | Path
) -> int:
    """Write records (objects or a columnar batch) to a CSV file.

    Returns the number of rows written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        if isinstance(records, RecordBatch):
            networks = records.network_labels()
            writer.writerows(
                [user, tower, repr(start), repr(end), repr(volume), network]
                for user, tower, start, end, volume, network in zip(
                    records.user_id.tolist(),
                    records.tower_id.tolist(),
                    records.start_s.tolist(),
                    records.end_s.tolist(),
                    records.bytes_used.tolist(),
                    networks,
                )
            )
            return len(records)
        for record in records:
            writer.writerow(
                [
                    record.user_id,
                    record.tower_id,
                    repr(record.start_s),
                    repr(record.end_s),
                    repr(record.bytes_used),
                    record.network,
                ]
            )
            count += 1
    return count


def read_records_csv(path: str | Path) -> Iterator[TrafficRecord]:
    """Stream records from a CSV file written by :func:`write_records_csv`."""
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _RECORD_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_RECORD_FIELDS}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_RECORD_FIELDS):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}"
                )
            try:
                yield TrafficRecord(
                    user_id=int(row[0]),
                    tower_id=int(row[1]),
                    start_s=float(row[2]),
                    end_s=float(row[3]),
                    bytes_used=float(row[4]),
                    network=row[5],
                )
            except (ValueError, TypeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error


def write_records_jsonl(
    records: Iterable[TrafficRecord] | RecordBatch, path: str | Path
) -> int:
    """Write records (objects or a columnar batch) to a JSON-lines file.

    Returns the number of rows written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(records, RecordBatch):
        with path.open("w") as handle:
            networks = records.network_labels()
            for user, tower, start, end, volume, network in zip(
                records.user_id.tolist(),
                records.tower_id.tolist(),
                records.start_s.tolist(),
                records.end_s.tolist(),
                records.bytes_used.tolist(),
                networks,
            ):
                handle.write(
                    json.dumps(
                        {
                            "user_id": user,
                            "tower_id": tower,
                            "start_s": start,
                            "end_s": end,
                            "bytes_used": volume,
                            "network": network,
                        }
                    )
                )
                handle.write("\n")
        return len(records)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "user_id": record.user_id,
                        "tower_id": record.tower_id,
                        "start_s": record.start_s,
                        "end_s": record.end_s,
                        "bytes_used": record.bytes_used,
                        "network": record.network,
                    }
                )
            )
            handle.write("\n")
            count += 1
    return count


def read_records_jsonl(path: str | Path) -> Iterator[TrafficRecord]:
    """Stream records from a JSON-lines file."""
    path = Path(path)
    with path.open("r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                yield TrafficRecord(
                    user_id=int(payload["user_id"]),
                    tower_id=int(payload["tower_id"]),
                    start_s=float(payload["start_s"]),
                    end_s=float(payload["end_s"]),
                    bytes_used=float(payload["bytes_used"]),
                    network=str(payload.get("network", "LTE")),
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error


# ----------------------------------------------------------------------
# Chunked columnar readers
# ----------------------------------------------------------------------


def _raise_locating_bad_row(
    path: Path,
    numbered_rows: list[tuple[int, list[str]]],
    error: Exception,
) -> NoReturn:
    """Re-raise a chunk-level conversion error as a per-line error.

    The vectorized conversion only reports that *some* row in the chunk is
    bad; this slow path (only ever taken on malformed input) replays the
    chunk through the scalar record constructor to name the exact line.
    """
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
    """Convert accumulated CSV rows into one columnar batch."""
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


#: Bytes a row of :func:`write_records_csv` output is made of.  A chunk
#: holding any other byte (a quote, whitespace, NUL, ``inf``) is replayed
#: through the row loop, so the bulk parse never accepts a row the row loop
#: would read differently.
_BULK_BYTES = b"0123456789+-.eE,\r\n" + "".join(NETWORK_NAMES).encode()

#: One CSV row for ``np.loadtxt``.  The network field is one character wider
#: than the longest label, so a longer value (``LTEX``) survives truncation
#: as an invalid label instead of passing as a valid one.
_CSV_ROW_DTYPE = np.dtype(
    [
        ("user_id", np.int64),
        ("tower_id", np.int64),
        ("start_s", np.float64),
        ("end_s", np.float64),
        ("bytes_used", np.float64),
        ("network", f"U{max(map(len, NETWORK_NAMES)) + 1}"),
    ]
)


def _as_text(raw: BinaryIO) -> io.TextIOWrapper:
    """Decode a binary stream the way ``path.open("r", newline="")`` does."""
    return io.TextIOWrapper(raw, newline="")


def _check_header(path: Path, header: list[str] | None) -> None:
    if header is None or tuple(header) != _RECORD_FIELDS:
        raise TraceFormatError(
            f"{path}: unexpected header {header!r}, expected {_RECORD_FIELDS}"
        )


def _text_lines(data: bytes, line_count: int) -> list[str] | None:
    """``data``'s lines as text, or ``None`` if ``csv`` rows may not be them.

    A quoted field may hold a line break, and text mode also ends a line at
    a lone carriage return.  ``str.splitlines`` breaks there too (and at a
    few control characters), so a changed line count flags all of these.
    """
    text = data.decode("latin-1").splitlines()
    if b'"' in data or len(text) != line_count:
        return None
    return text


def _iter_row_batches(
    path: Path, text: Iterable[str], first_line: int, chunk_size: int
) -> Iterator[RecordBatch]:
    """Batch CSV rows one at a time: the replay path of the bulk parse.

    ``text`` yields the file's lines from line ``first_line`` on; line 1 is
    the header.
    """
    reader = csv.reader(text)
    if first_line == 1:
        _check_header(path, next(reader, None))
        first_line = 2
    pending: list[tuple[int, list[str]]] = []
    for line_number, row in enumerate(reader, start=first_line):
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


def _read_chunk(handle: BinaryIO, chunk_size: int) -> tuple[bytes, int, int]:
    """Read lines until ``chunk_size`` of them are non-blank, or to the end.

    Returns the lines joined, their count and the count of non-blank ones.
    """
    lines: list[bytes] = []
    rows = 0
    while rows < chunk_size:
        more = list(islice(handle, chunk_size - rows))
        if not more:
            break
        lines += more
        rows += len(more) - more.count(b"\n") - more.count(b"\r\n")
    return b"".join(lines), len(lines), rows


def _parse_chunk(text: list[str], data: bytes) -> RecordBatch | None:
    """Bulk-parse a chunk; ``None`` when it must be replayed row by row."""
    if data.translate(None, _BULK_BYTES) or max(map(len, text)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(
            text, dtype=_CSV_ROW_DTYPE, delimiter=",", comments=None, ndmin=1
        )
        return RecordBatch(
            user_id=np.ascontiguousarray(table["user_id"]),
            tower_id=np.ascontiguousarray(table["tower_id"]),
            start_s=np.ascontiguousarray(table["start_s"]),
            end_s=np.ascontiguousarray(table["end_s"]),
            bytes_used=np.ascontiguousarray(table["bytes_used"]),
            network=encode_networks(table["network"]),
        )
    except (ValueError, OverflowError):
        return None


def iter_record_batches_csv(
    path: str | Path, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[RecordBatch]:
    """Stream a CSV trace as columnar batches of up to ``chunk_size`` records.

    The fast counterpart of :func:`read_records_csv`: each chunk is parsed
    in bulk, so memory stays bounded by the chunk size and the per-record
    Python overhead disappears.  ``chunk_size`` counts non-blank rows.
    Malformed rows raise :class:`TraceFormatError` naming the file path and
    line.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    path = Path(path)
    with path.open("rb") as handle:
        header = handle.readline()
        if _text_lines(header, 1) is None:
            handle.seek(0)
            yield from _iter_row_batches(path, _as_text(handle), 1, chunk_size)
            return
        _check_header(path, next(csv.reader(_as_text(io.BytesIO(header))), None))
        line_number = 2
        while True:
            offset = handle.tell()
            data, line_count, rows = _read_chunk(handle, chunk_size)
            if not rows:
                return
            text = _text_lines(data, line_count)
            if text is None:
                # Rows and lines may part ways from here: the row loop reads
                # the rest of the file.
                handle.seek(offset)
                yield from _iter_row_batches(path, _as_text(handle), line_number, chunk_size)
                return
            batch = _parse_chunk(text, data)
            if batch is None:
                yield from _iter_row_batches(
                    path, _as_text(io.BytesIO(data)), line_number, chunk_size
                )
            else:
                yield batch
            line_number += line_count


def read_record_batch_csv(path: str | Path) -> RecordBatch:
    """Read an entire CSV trace into one columnar batch."""
    return RecordBatch.concat(iter_record_batches_csv(path))


def iter_record_batches_jsonl(
    path: str | Path, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[RecordBatch]:
    """Stream a JSONL trace as columnar batches of up to ``chunk_size`` records.

    The fast counterpart of :func:`read_records_jsonl`; malformed lines
    raise :class:`TraceFormatError` naming the file path and line.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    path = Path(path)

    def flush(
        numbers: list[int], columns: tuple[list, list, list, list, list, list]
    ) -> RecordBatch:
        user_ids, tower_ids, starts, ends, volumes, networks = columns
        try:
            return RecordBatch(
                user_id=np.asarray(user_ids, dtype=np.int64),
                tower_id=np.asarray(tower_ids, dtype=np.int64),
                start_s=np.asarray(starts, dtype=np.float64),
                end_s=np.asarray(ends, dtype=np.float64),
                bytes_used=np.asarray(volumes, dtype=np.float64),
                network=np.asarray(networks),
            )
        except (ValueError, TypeError, OverflowError) as error:
            numbered_rows = [
                (
                    number,
                    [str(user), str(tower), str(start), str(end), str(volume), network],
                )
                for number, user, tower, start, end, volume, network in zip(
                    numbers, user_ids, tower_ids, starts, ends, volumes, networks
                )
            ]
            _raise_locating_bad_row(path, numbered_rows, error)

    numbers: list[int] = []
    columns: tuple[list, list, list, list, list, list] = ([], [], [], [], [], [])
    with path.open("r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                columns[0].append(int(payload["user_id"]))
                columns[1].append(int(payload["tower_id"]))
                columns[2].append(float(payload["start_s"]))
                columns[3].append(float(payload["end_s"]))
                columns[4].append(float(payload["bytes_used"]))
                columns[5].append(str(payload.get("network", "LTE")))
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error
            numbers.append(line_number)
            if len(numbers) >= chunk_size:
                yield flush(numbers, columns)
                numbers = []
                columns = ([], [], [], [], [], [])
        if numbers:
            yield flush(numbers, columns)


def read_record_batch_jsonl(path: str | Path) -> RecordBatch:
    """Read an entire JSONL trace into one columnar batch."""
    return RecordBatch.concat(iter_record_batches_jsonl(path))


def write_stations_csv(stations: Iterable[BaseStationInfo], path: str | Path) -> int:
    """Write station metadata to a CSV file; returns the number of rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_STATION_FIELDS)
        for station in stations:
            writer.writerow(
                [
                    station.tower_id,
                    station.address,
                    "" if station.lat is None else repr(station.lat),
                    "" if station.lon is None else repr(station.lon),
                ]
            )
            count += 1
    return count


def read_stations_csv(path: str | Path) -> list[BaseStationInfo]:
    """Read station metadata from a CSV file."""
    path = Path(path)
    stations: list[BaseStationInfo] = []
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _STATION_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_STATION_FIELDS}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_STATION_FIELDS):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected {len(_STATION_FIELDS)} fields, got {len(row)}"
                )
            try:
                stations.append(
                    BaseStationInfo(
                        tower_id=int(row[0]),
                        address=row[1],
                        lat=float(row[2]) if row[2] else None,
                        lon=float(row[3]) if row[3] else None,
                    )
                )
            except (ValueError, TypeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error
    return stations
