"""Arbitrary bytes after a valid header never crash the CSV readers.

``read_transactions_csv`` either returns batches or raises an
``InputError``; ``eval`` on a labels file exits 0 or 2 and never raises.
The bytes mix raw binary with CSV-shaped tokens (separators, quotes,
numbers, non-finite and negative amounts, bytes that are not UTF-8), so
both the parsing and the validation paths are reached.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wscluster import read_transactions_csv
from wscluster.cli import main
from wscluster.errors import InputError

TOKENS = [b"a", b"b", b",", b"\n", b"\r\n", b'"', b"1", b"2.5", b"-3", b"nan", b"inf",
          b"1e999", b" ", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x82"]

BODIES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(TOKENS), max_size=60).map(b"".join),
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(body=BODIES)
def test_transactions_reader_returns_or_raises_input_error(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(b"entity_id,amount\n" + body)
    try:
        batches = read_transactions_csv(path)
    except InputError:
        return
    assert batches


@FUZZ
@given(body=BODIES)
def test_eval_exits_0_or_2(tmp_path, body):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"entity_id,label\n" + body)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", str(path), str(path)])
    assert code in (0, 2)
