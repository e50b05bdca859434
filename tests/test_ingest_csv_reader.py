"""The bulk-parsing chunked CSV reader against the row-at-a-time oracle.

Every fixture is read by :func:`repro.ingest.loader.iter_record_batches_csv`
and by the frozen row-loop reader in ``tests/oracles/csv_reader.py``.  The
two must yield the same batches, bit for bit and chunk by chunk, and fail
with the same message at the same point.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.csv_reader import iter_record_batches_csv as oracle_reader

from repro.ingest import loader
from repro.ingest.batch import RecordBatch
from repro.ingest.loader import (
    TraceFormatError,
    iter_record_batches_csv,
    read_record_batch_csv,
    write_records_csv,
)

HEADER = b"user_id,tower_id,start_s,end_s,bytes_used,network"
CHUNK_SIZES = (1, 7, 200_000)


def outcome(reader, path, chunk_size):
    """The batches a reader yields (dtype and bytes per column), then its error."""
    batches = []
    try:
        for batch in reader(path, chunk_size=chunk_size):
            batches.append([(column.dtype.str, column.tobytes()) for column in batch.columns()])
    except Exception as error:  # the oracle's error type is part of the outcome
        return batches, f"{type(error).__name__}: {error}"
    return batches, None


def assert_matches_oracle(path, chunk_size, *, valid):
    expected = outcome(oracle_reader, path, chunk_size)
    assert outcome(iter_record_batches_csv, path, chunk_size) == expected
    assert (expected[1] is None) == valid, expected[1]


def csv_bytes(rows, *, newline=b"\n", trailing=True):
    body = newline.join([HEADER, *rows])
    return body + newline if trailing else body


def writer_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    n = 500
    starts = rng.uniform(0, 7 * 86_400, size=n)
    batch = RecordBatch(
        user_id=rng.integers(0, 2**40, size=n),
        tower_id=rng.integers(0, 300, size=n),
        start_s=starts,
        end_s=starts + rng.exponential(900.0, size=n),
        bytes_used=rng.lognormal(9.0, 2.0, size=n),
        network=rng.integers(0, 2, size=n).astype(np.uint8),
    )
    path = tmp_path / "written.csv"
    write_records_csv(batch, path)
    return path.read_bytes()


ROWS = [f"{i},{i % 3},{i}.5,{i + 1}.25,{10 * i}.0,{'LTE' if i % 2 else '3G'}".encode()
        for i in range(1, 16)]

VALID_FIXTURES = {
    "blank_lines": lambda tmp_path: csv_bytes(
        [b"", *ROWS[:7], b"", b"", *ROWS[7:14], b"", ROWS[14], b"", b""]
    ),
    "blank_line_at_chunk_boundary": lambda tmp_path: csv_bytes([*ROWS[:7], b"", *ROWS[7:]]),
    "crlf_no_trailing_newline": lambda tmp_path: csv_bytes(
        [*ROWS[:7], b"", *ROWS[7:]], newline=b"\r\n", trailing=False
    ),
    "lf_no_trailing_newline": lambda tmp_path: csv_bytes(ROWS, trailing=False),
    "mixed_line_endings": lambda tmp_path: b"\r\n".join([HEADER, *ROWS[:5]]) + b"\n"
    + b"\n".join(ROWS[5:]) + b"\r\n",
    "quoted_fields": lambda tmp_path: csv_bytes(
        [*ROWS[:8], b'"9","0","9.5","10.25","90.0","LTE"', b'10,1,10.5,11.25,"1e2",3G', *ROWS[10:]]
    ),
    "quoted_line_break": lambda tmp_path: csv_bytes(
        [*ROWS[:3], b'"4\n",1,4.5,5.25,40.0,3G', *ROWS[4:]]
    ),
    "quoted_header": lambda tmp_path: csv_bytes(ROWS).replace(b"user_id", b'"user_id"', 1),
    "whitespace_around_numbers": lambda tmp_path: csv_bytes(
        [*ROWS[:9], b" 10 ,\t1, 10.5 ,11.25 , 100.0,3G", *ROWS[10:]]
    ),
    "no_break_space_around_numbers": lambda tmp_path: csv_bytes(
        [*ROWS[:9], "10\u00a0,1,10.5,\u00a011.25,100.0,3G".encode(), *ROWS[10:]]
    ),
    "lone_carriage_return_between_rows": lambda tmp_path: csv_bytes(
        [*ROWS[:5], ROWS[5] + b"\r" + ROWS[6], *ROWS[7:]]
    ),
    "number_spellings": lambda tmp_path: csv_bytes(
        [
            b"1,2,1e5,1E+05,0.1000000000000000055511151231257827,LTE",
            b"+3,004,-0.0,0.0,-0.0,3G",
            b"5,6,.5,5.,1e-320,LTE",
            b"7,8,86399.99999999999,86400.00000000001,1.7976931348623157e+308,3G",
            b"9,10,2.220446049250313e-16,0.30000000000000004,5e-324,LTE",
            *(repr(v).encode() + b",1,0.0,1.0,2.0,LTE" for v in (0, -0, 10**17)),
        ]
    ),
    "int64_edge_ids": lambda tmp_path: csv_bytes(
        [
            b"9223372036854775807,-9223372036854775808,0.0,1.0,2.0,LTE",
            b"-9223372036854775808,9223372036854775807,0.0,1.0,2.0,3G",
            *ROWS,
        ]
    ),
    "writer_round_trip": writer_round_trip,
}

MALFORMED_FIXTURES = {
    "end_before_start": lambda tmp_path: csv_bytes([*ROWS[:9], b"10,1,20.0,10.0,5.0,LTE", *ROWS[10:]]),
    "bad_network": lambda tmp_path: csv_bytes([*ROWS[:4], b"5,1,5.5,6.25,50.0,LTEX", *ROWS[5:]]),
    "long_bad_network": lambda tmp_path: csv_bytes([*ROWS[:4], b"5,1,5.5,6.25,50.0,LTE-A"]),
    "network_of_label_letters": lambda tmp_path: csv_bytes(
        [*ROWS[:4], b"5,1,5.5,6.25,50.0,LTEE", *ROWS[5:]]
    ),
    "network_with_whitespace": lambda tmp_path: csv_bytes([*ROWS[:4], b"5,1,5.5,6.25,50.0, LTE"]),
    "short_row": lambda tmp_path: csv_bytes([*ROWS[:12], b"13,1,2", *ROWS[13:]]),
    "long_row": lambda tmp_path: csv_bytes([*ROWS[:2], ROWS[2] + b",", *ROWS[3:]]),
    "hash_in_field": lambda tmp_path: csv_bytes([*ROWS[:6], b"7,1,7.5,8.25,70.0,LTE#1", *ROWS[7:]]),
    "hash_leading_line": lambda tmp_path: csv_bytes([*ROWS[:6], b"#7,1,7.5,8.25,70.0,LTE"]),
    "float_user_id": lambda tmp_path: csv_bytes([*ROWS[:3], b"4.0,1,4.5,5.25,40.0,3G"]),
    "int64_overflow": lambda tmp_path: csv_bytes([*ROWS[:3], b"9223372036854775808,1,0.0,1.0,2.0,3G"]),
    "empty_field": lambda tmp_path: csv_bytes([*ROWS[:3], b"4,1,,5.25,40.0,3G"]),
    "inf_end": lambda tmp_path: csv_bytes([*ROWS[:8], b"9,1,9.5,inf,90.0,LTE", *ROWS[9:]]),
    "inf_start_and_end": lambda tmp_path: csv_bytes([*ROWS[:8], b"9,1,inf,inf,90.0,LTE"]),
    "overflowing_bytes": lambda tmp_path: csv_bytes([*ROWS[:8], b"9,1,9.5,10.0,1e400,LTE"]),
    "nan_bytes": lambda tmp_path: csv_bytes([*ROWS[:8], b"9,1,9.5,10.0,nan,3G"]),
    "lone_carriage_return": lambda tmp_path: csv_bytes([*ROWS[:5], b"6,1,6.5\r7.25,60.0,LTE"]),
    "bad_row_after_quoted_line_break": lambda tmp_path: csv_bytes(
        [*ROWS[:3], b'"4\n",1,4.5,5.25,40.0,3G', *ROWS[4:9], b"10,1,20.0,10.0,5.0,LTE"]
    ),
    "bad_row_after_lone_carriage_return": lambda tmp_path: csv_bytes(
        [*ROWS[:3], ROWS[3] + b"\r" + ROWS[4], *ROWS[5:9], b"10,1,20.0,10.0,5.0,LTE"]
    ),
    "oversized_field": lambda tmp_path: csv_bytes(
        [*ROWS[:3], b"4,1,0." + b"0" * 140_000 + b"1,5.25,40.0,3G", *ROWS[4:]]
    ),
    "bad_header": lambda tmp_path: b"user,tower\n" + b"\n".join(ROWS),
    "empty_file": lambda tmp_path: b"",
}


def write_fixture(tmp_path, name, build):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(build(tmp_path))
    return path


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(VALID_FIXTURES))
def test_valid_fixture_matches_oracle(tmp_path, name, chunk_size):
    path = write_fixture(tmp_path, name, VALID_FIXTURES[name])
    assert_matches_oracle(path, chunk_size, valid=True)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_malformed_fixture_fails_like_oracle(tmp_path, name, chunk_size):
    path = write_fixture(tmp_path, name, MALFORMED_FIXTURES[name])
    assert_matches_oracle(path, chunk_size, valid=False)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize(
    ("bad_row", "message"),
    [
        (b"10,1,20.0,10.0,5.0,LTE", "end_s (10.0) must not precede start_s (20.0)"),
        (b"10,1,10.5,11.25,100.0,4G", "network must be '3G' or 'LTE', got '4G'"),
        (b"10,1,10.5", "expected 6 fields, got 3"),
        (b"10,1,10.5,inf,100.0,LTE", "end_s must be finite, got inf"),
        (b"10,1,nan,11.25,100.0,LTE", "start_s must be non-negative, got nan"),
    ],
)
def test_bad_line_named_after_blank_lines(tmp_path, bad_row, message, chunk_size, newline):
    # Two blank lines shift the bad row from record 10 to file line 13.
    path = tmp_path / "trace.csv"
    path.write_bytes(csv_bytes([*ROWS[:4], b"", *ROWS[4:8], b"", ROWS[8], bad_row, *ROWS[10:]],
                               newline=newline))
    with pytest.raises(TraceFormatError) as raised:
        list(iter_record_batches_csv(path, chunk_size=chunk_size))
    assert str(raised.value) == f"{path}:13: {message}"
    assert_matches_oracle(path, chunk_size, valid=False)


def test_undecodable_byte_fails_like_oracle(tmp_path):
    # U+00A0 as a lone latin-1 byte: not UTF-8, and whitespace to np.loadtxt.
    path = tmp_path / "trace.csv"
    path.write_bytes(csv_bytes([*ROWS[:4], b"5\xa0,1,5.5,6.25,50.0,LTE", *ROWS[5:]]))
    errors = []
    for reader in (oracle_reader, iter_record_batches_csv):
        try:
            list(reader(path, chunk_size=7))
            errors.append(None)
        except Exception as error:  # compared by type below
            errors.append(type(error))
    assert errors[0] is not None
    assert errors[1] is errors[0]


def test_chunk_boundaries_count_non_blank_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(csv_bytes([b"", *ROWS[:7], b"", b"", *ROWS[7:]]))
    assert [len(batch) for batch in iter_record_batches_csv(path, chunk_size=7)] == [7, 7, 1]
    assert len(read_record_batch_csv(path)) == len(ROWS)


def test_writer_output_never_takes_the_row_loop(tmp_path, monkeypatch):
    def no_row_loop(*args, **kwargs):
        raise AssertionError("the bulk parse handed writer output to the row loop")

    path = write_fixture(tmp_path, "written", writer_round_trip)
    monkeypatch.setattr(loader, "_iter_row_batches", no_row_loop)
    assert [len(batch) for batch in iter_record_batches_csv(path, chunk_size=200)] == [
        200, 200, 100
    ]


# ----------------------------------------------------------------------
# Generated rows
# ----------------------------------------------------------------------

_ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.integers(0, 999).map(lambda i: f"{'+' if i % 3 == 0 else ''}{i:03d}"),
    st.sampled_from(["9223372036854775808", "1.0", "1e3", "", "-", "0x1"]),
)
_floats = st.one_of(
    st.floats(0, 1e7, allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 1e7, allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
    st.floats(0, 1e7, allow_nan=False, allow_infinity=False).map(lambda v: f"{v:g}"),
    st.sampled_from(["-0.0", "1e5", "1E+05", ".5", "5.", "inf", "nan", "1e400", "-1.0",
                     "1_0", " 2.5 ", '"3.5"', "", "e", "1.5.5", "#1"]),
)
_networks = st.sampled_from(["LTE", "3G", "LTE", "3G", "LTEX", "LTE-A", " LTE", "lte", "",
                             '"LTE"', "3G#", "LTE\r"])
_rows = st.one_of(
    st.tuples(_ints, _ints, _floats, _floats, _floats, _networks).map(",".join),
    st.just(""),
    st.text(alphabet='0123456789+-.eE,"# \tLTEG\r\n', max_size=30),
)


@pytest.fixture(scope="module")
def generated_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "trace.csv"


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_rows, max_size=25),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
    chunk_size=st.sampled_from([1, 3, 200_000]),
)
def test_generated_rows_match_oracle(generated_csv, rows, newline, trailing, chunk_size):
    text = newline.join([HEADER.decode(), *rows]) + (newline if trailing else "")
    generated_csv.write_bytes(text.encode())
    new = outcome(iter_record_batches_csv, generated_csv, chunk_size)
    assert new == outcome(oracle_reader, generated_csv, chunk_size)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1),
            st.integers(-(2**63), 2**63 - 1),
            st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
            st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
            st.floats(0, 1e12, allow_nan=False, allow_infinity=False),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=40,
    ),
    chunk_size=st.sampled_from([1, 7, 200_000]),
)
def test_written_batches_read_back_bit_for_bit(generated_csv, values, chunk_size):
    users, towers, starts, durations, volumes, networks = (np.array(c) for c in zip(*values))
    batch = RecordBatch(
        user_id=users, tower_id=towers, start_s=starts, end_s=starts + durations,
        bytes_used=volumes, network=networks.astype(np.uint8),
    )
    write_records_csv(batch, generated_csv)
    read = outcome(iter_record_batches_csv, generated_csv, chunk_size)
    assert read == outcome(oracle_reader, generated_csv, chunk_size)
    assert read[1] is None
    whole = RecordBatch.concat(iter_record_batches_csv(generated_csv, chunk_size=chunk_size))
    for column, expected in zip(whole.columns(), batch.columns()):
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()
