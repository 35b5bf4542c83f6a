"""Parser-driven fuzz of the CLI.

The test walks ``build_parser()``: every subcommand, and every flag it
registers, draws its value from edge values chosen by the flag's type --
0, negatives, NaN, +-inf, huge values, empty and reversed lists, and
vectors that start with '-'.  Each run must exit 0 and write its output,
or exit 2 with one error line (after argparse's usage block, if any) that
names a flag or a value, and it must not raise or warn.

Sizes are bounded so that no example allocates more than a few MiB: n
(eq1-audit simulates 2n - 1 + 3 log2(n/2) qubits, so n <= 8 there), N and
list lengths (the bounds sweep costs its cell count), register widths
and shot counts that are cheap to draw.  Values past a ceiling that the
program checks before allocating (pair-map n, eq1-audit n, widths, shots)
are drawn at full size.
"""

import argparse
import contextlib
import io
import os
import re
import shutil
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swaplab import cli

HUGE = ["99999999999999999999", str(2**40)]
FLOATS = st.sampled_from(
    ["0", "-0", "-1", "-2.5", "0.5", "1", "2", "nan", "inf", "-inf",
     "1e308", "-1e308", "1e-300", "5e-324"]
) | st.floats().map(repr)
# list entries are drawn from FLOATS or from values inside (0, 1), so that
# some (alpha, p) grids are valid
UNIT = st.sampled_from(["0.05", "0.3", "0.5", "0.7", "0.95"])
SEEDS = st.sampled_from(["0", "1", "-1", "-99999999999999999999", *HUGE])
SHOTS = st.sampled_from(
    ["0", "-1", "1", "2", "1000", "inf", "Infinity", "-inf", "nan", "1.5", "1e3",
     str(2**53), str(2**53 + 1), *HUGE]
)
SMALL = ["-1", "0", "1", "2", "3", "4", "5", "8"]
# whole numbers by (subcommand, destination); a list flag draws its entries
# from the same table
INTS = {
    ("pair-map", "n"): SMALL + ["16", "128", *HUGE],
    ("pair-map", "w"): SMALL + ["28", "29", *HUGE],
    ("eq1-audit", "n"): SMALL + ["32", "128", *HUGE],
    ("eq1-audit", "trials"): ["-1", "0", "1", "2", "3"],
    ("bounds", "n_values"): ["-1", "0", "1", "2", "10", "1000"],
    ("scaling", "n_list"): SMALL + ["1024", str(2**40), "99999999999999999999"],
    ("gatecount", "n_list"): SMALL + ["16", "32"],
    ("gatecount", "w"): SMALL + ["28", "29", *HUGE],
}
# ranges are drawn from this list only: a drawn range could hold 10^4 N
RANGES = ["5..1", "1..3", "-3..-1", "2..2", "1..", "..4"]
# bounds' default N list, 1..50, is a sweep of 23,000 cells
ALWAYS = {"bounds": {"n_values"}}
CLOUDS = {
    "plane.csv": "x,y\n1,0\n0.8,-0.6\n-0.6,0.8\n0,-1\n0.3,0.3\n",
    "space.csv": "-1,0,0\n0.5,-0.5,0.5\n0,0,-2\n",
}

SUBPARSERS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in CLOUDS.items():
        (path / name).write_text(text)
    return path


def _lists(entries):
    return (
        st.lists(entries, min_size=1, max_size=3).map(",".join)
        | st.sampled_from(["", ",", *RANGES])
    )


def _values(sub, action, workdir):
    """The strategy of one flag's value, chosen by its type."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "points_path":
        return st.sampled_from([str(workdir / name) for name in CLOUDS])
    if action.dest in ("out", "dump_circuit"):
        return st.just(str(workdir / action.dest))
    kind = action.type
    if kind is float:
        return FLOATS
    if kind is cli._parse_seed:
        return SEEDS
    if kind is cli._parse_shots:
        return SHOTS
    if kind is int:
        return st.sampled_from(INTS[sub, action.dest])
    if kind is cli._parse_int_list:
        return _lists(st.sampled_from(INTS[sub, action.dest]))
    if kind is cli._parse_float_list:
        return _lists(FLOATS | UNIT)
    raise AssertionError(f"no edge values for {sub} {action.option_strings}")


@st.composite
def _argv(draw, sub, workdir):
    argv = [sub]
    for action in SUBPARSERS[sub]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        # --out always points into the work directory: an egraph run writes
        # a directory, egraph-out by default
        keep = action.required or action.dest == "out" or action.dest in ALWAYS.get(sub, ())
        if keep or draw(st.booleans()):
            argv += [action.option_strings[0], draw(_values(sub, action, workdir))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _named(message, argv):
    """Whether the message names one of argv's flags (without its dashes,
    or in words: "alpha grid") or values (as given, or one entry of a list,
    or as Python prints the float)."""
    names = set()
    for flag, value in zip(argv[1::2], argv[2::2]):
        names.update({flag.lstrip("-"), flag.lstrip("-").replace("-", " ")})
        for entry in {value, *re.split(r",|\.\.", value)}:
            names.add(entry)
            with contextlib.suppress(ValueError):
                names.add(repr(float(entry)))
    return any(
        re.search(rf"(?<![\w.]){re.escape(name)}(?![\w])", message)
        for name in names if name
    )


def _check(argv, workdir):
    for stale in ("out", "dump_circuit"):
        target = workdir / stale
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink(missing_ok=True)
    code, out, err = _run(argv)
    sub = argv[0]
    if code == 0:
        assert not err, err
        assert os.path.exists(workdir / "out"), "no output written"
        return
    assert code == 2, (code, err)
    *usage, last = err.splitlines()
    assert last.startswith(f"swaplab {sub}: error: "), err
    assert all(line.startswith(("usage: ", " ")) for line in usage), err
    assert _named(last.split(": error: ", 1)[1], argv), last


@pytest.mark.parametrize("sub", sorted(SUBPARSERS))
def test_edge_values_exit_cleanly(sub, workdir):
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(sub, workdir))
    def run(argv):
        _check(argv, workdir)

    run()
