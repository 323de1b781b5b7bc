"""Arbitrary bytes and arbitrary flag values never crash the CLI.

``read_transactions_csv`` either returns batches or raises an
``InputError``; ``eval`` on a labels file exits 0 or 2 and never raises.
The bytes mix raw binary with CSV-shaped tokens (separators, quotes,
numbers, non-finite and negative amounts, bytes that are not UTF-8), so
both the parsing and the validation paths are reached.

``cluster``, ``plotdata``, ``embed`` and ``distances`` get the flags of
the real parser with arbitrary values against a tiny valid CSV, and exit
with one of the documented codes, never with a traceback. So does
``bench``, on a few tiny clusters and at most two replications: its
``--sizes``, ``--m`` and ``--beta`` set how much work a run does, so they
take only small values.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wscluster import read_transactions_csv
from wscluster.cli import build_parser, main
from wscluster.errors import InputError
from wscluster.simulate import BENCH_METHODS

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


# a few entities with ties and one point mass; two groups to find
TINY_CSV = ("entity_id,amount\n" + "".join(
    f"{e},{a}\n" for e, amounts in [("a", (1, 2, 2)), ("b", (1, 2, 3)), ("c", (2, 2)),
                                    ("d", (9, 10, 10)), ("e", (9, 11)), ("f", (10,))]
    for a in amounts))
TINY_LABELS = "entity_id,label\na,0\nb,0\nc,0\nd,1\ne,1\nf,x\n"

# values at or past the edges of int and float parsing, and texts that are neither
EDGE_VALUES = ["0", "-1", "1", "2", "3", "5", "6", "7", "1e999", "-1e999", "nan", "inf",
               "1.5", "0.0", "1e-320", "9" * 25, "0x10", "", " 3", "3 ", "1_000", "\x00",
               "a,b", "3,"]

VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-100, 100).map(str),
                   st.floats().map(repr), st.text(max_size=6))


def _options(command):
    """Every option of ``command`` in the real parser except ``-h``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [a for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


@st.composite
def _argv(draw, command, positionals, outs, values=None):
    """``command`` with some of its flags; ``values`` maps a dest to the only values it takes."""
    values = values or {}
    argv = [command, *positionals]
    actions = draw(st.lists(st.sampled_from(_options(command)), unique_by=id))
    # one flag at most takes an arbitrary value, so that most runs get past the parser
    arbitrary = draw(st.sampled_from([None, *(a for a in actions if a.dest not in values)]))
    for action in actions:
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.dest == "out":  # keep every write under the test's directory
            argv.append(draw(st.sampled_from(outs)))
        elif action.nargs == 0 or (action.nargs == "?" and draw(st.booleans())):
            continue
        elif action is arbitrary:
            argv.append(draw(VALUES))
        elif action.dest in values:
            argv.append(draw(values[action.dest]))
        else:
            argv.append(draw(st.sampled_from(list(map(str, action.choices))) if action.choices
                             else st.integers(1, 12).map(str)))
    return argv


def _outs(tmp_path):
    (tmp_path / "file").write_text("")
    return [str(tmp_path / "out"), str(tmp_path / "new" / "deeper"), str(tmp_path / "file")]


def _run(argv, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:  # what a run writes is strict JSON: no NaN or Infinity
        for path in tmp_path.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(
                f"{argv}: {name} in {path.name}"))


@FUZZ
@given(data=st.data())
def test_cluster_flags_exit_with_a_documented_code(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # where the default --out . writes
    path = tmp_path / "t.csv"
    path.write_text(TINY_CSV)
    _run(data.draw(_argv("cluster", [str(path)], _outs(tmp_path))), tmp_path)


@FUZZ
@given(data=st.data())
def test_plotdata_flags_exit_with_a_documented_code(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # where the default --out . writes
    path, labels = tmp_path / "t.csv", tmp_path / "labels.csv"
    path.write_text(TINY_CSV)
    labels.write_text(TINY_LABELS)
    _run(data.draw(_argv("plotdata", [str(path), str(labels)], _outs(tmp_path))), tmp_path)


@FUZZ
@given(data=st.data(), command=st.sampled_from(["embed", "distances"]))
def test_embed_and_distances_flags_exit_with_a_documented_code(tmp_path, monkeypatch, data,
                                                               command):
    monkeypatch.chdir(tmp_path)  # where the default --out . writes
    path = tmp_path / "t.csv"
    path.write_text(TINY_CSV)
    _run(data.draw(_argv(command, [str(path)], _outs(tmp_path))), tmp_path)


BENCH_VALUES = {
    "sizes": st.sampled_from(["1", "2", "1,1,1", "3,3", "2,3,4"]),
    "m": st.sampled_from(["1", "2"]),
    "beta": st.sampled_from(["1e-320", "0.5", "3", "15"]),
    "methods": st.lists(st.sampled_from(BENCH_METHODS), min_size=1, unique=True).map(",".join),
    "subsample_fraction": st.sampled_from(["1e-320", "0.05", "0.5", "1"]),
    "subsample_sweep": st.sampled_from(["1:1:1", "0.5:1:0.5", "0.1:0.3:0.1"]),
}


@FUZZ
@given(data=st.data())
def test_bench_flags_exit_with_a_documented_code(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # where the default --out . writes
    sizes, m = data.draw(BENCH_VALUES["sizes"]), data.draw(BENCH_VALUES["m"])
    _run(data.draw(_argv("bench", ["--sizes", sizes, "--m", m], _outs(tmp_path),
                         BENCH_VALUES)), tmp_path)
