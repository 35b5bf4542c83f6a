import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import swaplab
from swaplab import cli, egraph, harness, statevec
from swaplab.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = pathlib.Path(swaplab.__file__).resolve().parents[1]


def run_cli(args):
    assert main(args) == 0


def _swaplab(*args):
    """The CLI in a child process, with its exit code and both streams."""
    return subprocess.run(
        [sys.executable, "-m", "swaplab.cli", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


class TestSubcommands:
    def test_lemma1(self, tmp_path):
        out = tmp_path / "lemma1.csv"
        run_cli(["lemma1", "--out", str(out)])
        header, row = out.read_text().strip().splitlines()
        assert "gamma_tilde" in header.split(",")

    def test_swap_test_exact(self, tmp_path):
        out = tmp_path / "st.csv"
        run_cli(["swap-test", "--theta2", "3.141592653589793", "--out", str(out)])
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["p_exact"]) == pytest.approx(0.5, abs=1e-12)

    def test_swap_test_vectors_sampled(self, tmp_path):
        out = tmp_path / "st.csv"
        run_cli([
            "swap-test", "--vec1", "1,0", "--vec2", "1,1",
            "--shots", "2000", "--seed", "3", "--out", str(out),
        ])
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert abs(float(cols["p_hat"]) - 0.75) < 0.05

    @pytest.mark.parametrize("vec2", ["1,1,0,0", "1,1"])
    def test_swap_test_vectors_of_different_lengths(self, vec2):
        # the 4-vector encodes to the 3-vector's width, the 2-vector does not;
        # both must fail and name the two lengths
        proc = subprocess.run(
            [sys.executable, "-m", "swaplab.cli", "swap-test",
             "--vec1", "1,0,0", "--vec2", vec2],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        length = len(vec2.split(","))
        assert f"vec1 has 3 entries and vec2 has {length}" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["theta1", "phi1", "theta2", "phi2"])
    def test_swap_test_non_finite_angle(self, flag, value):
        proc = _swaplab("swap-test", f"--{flag}={value}")
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"{flag} must be finite, got {value}" in proc.stderr

    @pytest.mark.parametrize("bad", ["nan,1", "0,0", "inf,1"])
    @pytest.mark.parametrize("flag", ["vec1", "vec2"])
    def test_swap_test_bad_vector(self, flag, bad):
        vectors = {"vec1": "1,0", "vec2": "1,0", flag: bad}
        proc = _swaplab("swap-test", "--vec1", vectors["vec1"], "--vec2", vectors["vec2"])
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"{flag}: cannot encode a zero or non-finite vector" in proc.stderr

    def test_swap_test_negative_vector_in_spaced_form(self, tmp_path):
        out = tmp_path / "st.csv"
        run_cli(["swap-test", "--vec1", "-1,0", "--vec2", "1,0", "--out", str(out)])
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["overlap_sq_true"]) == 1.0

    def test_swap_test_negative_angle_in_spaced_form(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        run_cli(["swap-test", "--theta1", "-1e-3", "--out", str(spaced)])
        run_cli(["swap-test", "--theta1=-1e-3", "--out", str(joined)])
        assert spaced.read_bytes() == joined.read_bytes()
        header, row = spaced.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["overlap_sq_true"]) == pytest.approx(math.cos(5e-4) ** 2)

    def test_swap_test_negative_infinite_angle_in_spaced_form(self, capsys):
        # a runner's error returns exit code 2 in-process, without SystemExit
        assert main(["swap-test", "--phi2", "-inf"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "swaplab swap-test: error: phi2 must be finite, got -inf\n"

    def test_abbreviated_flag_is_not_read(self, tmp_path, capsys):
        # --ep is not taken for --eps, so it cannot skip the join of a value
        # that starts with '-'; the flag spelled in full reaches the runner
        points = tmp_path / "two.csv"
        points.write_text("0,0\n1,0\n")
        args = ["egraph", "--points", str(points), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--ep", "-inf"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        errors = [line for line in captured.err.splitlines() if ": error: " in line]
        assert errors == [captured.err.splitlines()[-1]]
        assert errors[0] == (
            "swaplab egraph: error: the following arguments are required: --eps"
        )
        assert main(args + ["--eps", "-inf"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "swaplab egraph: error: eps must be finite and positive, got -inf\n"

    def test_resource_error_is_one_line(self, capsys):
        assert main(["pair-map", "--n", "128"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("swaplab pair-map: error: pair map enumeration")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["quantum-standard", "quantum-naive", "quantum-multi"])
    def test_egraph_eps_beyond_sqrt2(self, tmp_path, mode):
        points = tmp_path / "quarter.csv"
        points.write_text("1,0\n0.8,0.6\n0.6,0.8\n0,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "swaplab.cli", "egraph", "--points", str(points),
             "--eps", "2.0", "--mode", mode, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "eps must lie in (0, sqrt(2)], got 2.0" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["brute", "kdtree"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_egraph_non_finite_eps(self, tmp_path, mode, eps):
        points = tmp_path / "two.csv"
        points.write_text("0,0\n1,0\n")
        proc = _swaplab("egraph", "--points", str(points), "--eps", eps,
                        "--mode", mode, "--out", str(tmp_path / "out"))
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"eps must be finite and positive, got {eps}" in proc.stderr
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "subcommand,span", [("bounds", "5..1"), ("gatecount", "32..4")]
    )
    def test_reversed_n_list_range(self, subcommand, span):
        proc = _swaplab(subcommand, "--n-list", span)
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"argument --n-list: empty range {span}" in proc.stderr

    @pytest.mark.parametrize(
        "grid,named",
        [
            (["--alpha-grid", ","], "alpha grid []"),
            (["--p-grid", "0.01"], "p grid [0.01]"),
            (["--alpha-grid", "1.5"], "alpha must lie in (0, 1), got 1.5"),
            (["--alpha-grid", "0.5,1.5"], "alpha must lie in (0, 1), got 1.5"),
        ],
    )
    def test_bounds_grid_without_cells(self, tmp_path, grid, named):
        out = tmp_path / "bounds.csv"
        proc = _swaplab("bounds", "--n-list", "3", *grid, "--out", str(out))
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,named",
        [
            (["--alpha-grid", "0.5", "--p-grid", "0.9,1.5,nan"],
             "p must lie in (0, 1), got 1.5"),
            (["--alpha-grid", "0.5", "--p-grid", "0.9,nan"],
             "p must lie in (0, 1), got nan"),
            (["--p-grid", "0.9,0"], "p must lie in (0, 1), got 0.0"),
            (["--n-list", "1..200,0"], "N must be a whole number >= 1, got 0"),
            (["--n-list", "0..3"], "N must be a whole number >= 1, got 0"),
            (["--n-list", "1" + "0" * 309],
             "N must be below 2^1024, the float range, got 1" + "0" * 309),
        ],
    )
    def test_bounds_bad_value_rejected(self, tmp_path, grid, named):
        out = tmp_path / "bounds.csv"
        proc = _swaplab("bounds", "--n-list", "3", *grid, "--out", str(out))
        assert proc.returncode != 0 and not proc.stdout
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["quantum-standard", "quantum-naive"])
    def test_egraph_pair_table_over_byte_ceiling(self, tmp_path, monkeypatch, capsys, mode):
        # 600 points need 20,126,400 bytes of pair table, over 16 MiB
        monkeypatch.setattr(statevec, "MAX_STATE_BYTES", 2**24)
        points, out = tmp_path / "cloud.csv", tmp_path / "out"
        angles = [k * math.pi / 1200 for k in range(600)]
        points.write_text("".join(f"{math.cos(a)!r},{math.sin(a)!r}\n" for a in angles))
        assert main(["egraph", "--points", str(points), "--eps", "0.5", "--mode", mode,
                     "--shots", "inf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err == (
            "swaplab egraph: error: the pair table for n=600 points needs 20126400 "
            "bytes, over the ceiling of 16777216 bytes\n"
        )

    @pytest.mark.parametrize("mode", ["brute", "kdtree"])
    def test_egraph_edge_list_over_byte_ceiling(self, tmp_path, monkeypatch, capsys, mode):
        # 2,000 points within eps of each other hold 1,999,000 edges; the
        # brute-force reference, which every mode builds first, stops after
        # its first tile of 32 rows, before the kd-tree is built
        monkeypatch.setattr(statevec, "MAX_STATE_BYTES", 2**20)
        monkeypatch.setattr(egraph, "kdtree_egraph",
                            lambda *args: pytest.fail("kd-tree built"))
        points, out = tmp_path / "cloud.csv", tmp_path / "out"
        points.write_text("".join(f"{k / 2000!r},0.5\n" for k in range(2000)))
        assert main(["egraph", "--points", str(points), "--eps", "10", "--mode", mode,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err == (
            "swaplab egraph: error: the edge list for n=2000 points at eps=10.0, at "
            "63472 edges, needs 6093312 bytes, over the ceiling of 1048576 bytes\n"
        )

    def test_bounds_past_the_fraction_step_cap_is_one_line(self, capsys, tmp_path):
        # p - alpha is 0.01 standard errors at N = 10^15: more than 10^5 steps
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--n-list", "1000000000000000", "--alpha-grid", "0.5",
                     "--p-grid", "0.5000000001581139", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err == (
            "swaplab bounds: error: the exact tail at N=1000000000000000, alpha=0.5, "
            "p=0.5000000001581139 needs more than 100000 continued-fraction steps\n"
        )

    def test_multi_egraph_past_the_pair_map_cap_is_one_line(self, tmp_path, capsys):
        points, out = tmp_path / "cloud.csv", tmp_path / "out"
        points.write_text("".join(f"{k + 1},1\n" for k in range(65)))
        assert main(["egraph", "--points", str(points), "--eps", "0.5",
                     "--mode", "quantum-multi", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err == (
            "swaplab egraph: error: pair map enumeration is capped at n=64 "
            "(2^18 outcomes); got n=128\n"
        )

    def test_gatecount_battery_over_byte_ceiling(self, tmp_path):
        # the battery is not built; U_n and the full circuit at 2^23 inputs
        # would take 6.8 GB
        out = tmp_path / "gc.csv"
        proc = _swaplab("gatecount", "--n-list", "4,8388608", "--out", str(out))
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr == (
            "swaplab gatecount: error: building U_n and the full circuit for "
            "n=8388608, w=1 needs 6845104128 bytes, over the ceiling of 4294967296 "
            "bytes\n")
        assert not out.exists()

    @pytest.mark.parametrize("dump", [False, True])
    def test_pair_map_zero_width(self, tmp_path, dump):
        # the width is checked by building U_n, dumped or not
        out, circuit = tmp_path / "pm.json", tmp_path / "circuit.json"
        extra = ["--dump-circuit", str(circuit)] if dump else []
        for w, named in (("0", "register width must be >= 1, got 0"),
                         ("29", "register width 29 exceeds the simulator ceiling "
                                "of 28 qubits")):
            proc = _swaplab("pair-map", "--n", "4", "--w", w, "--format", "json",
                            "--out", str(out), *extra)
            assert proc.returncode != 0 and not proc.stdout
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            assert named in proc.stderr, w
            assert not out.exists() and not circuit.exists()

    def test_pair_map_with_circuit_dump(self, tmp_path):
        out = tmp_path / "pm.csv"
        dump = tmp_path / "circuit.json"
        run_cli(["pair-map", "--n", "4", "--out", str(out),
                 "--dump-circuit", str(dump)])
        assert len(out.read_text().strip().splitlines()) == 9
        payload = json.loads(dump.read_text())
        assert payload["counts"]["cswap"] == 3
        assert {g["type"] for g in payload["gates"]} == {"h", "cswap"}

    def test_eq1_audit_json(self, tmp_path):
        out = tmp_path / "audit.json"
        run_cli(["eq1-audit", "--n", "4", "--trials", "2", "--out", str(out),
                 "--format", "json"])
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 12
        assert "c_pair_empirical" in payload["metadata"]

    def test_bounds_grid_flags(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run_cli(["bounds", "--n-list", "1..5", "--alpha-grid", "0.5",
                 "--p-grid", "0.9", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6

    def test_scaling(self, tmp_path):
        out = tmp_path / "scaling.csv"
        run_cli(["scaling", "--n-list", "4,8,16", "--gamma", "0.1",
                 "--out", str(out)])
        assert len(out.read_text().strip().splitlines()) == 4

    def test_gatecount(self, tmp_path):
        out = tmp_path / "gates.csv"
        run_cli(["gatecount", "--n-list", "4,8", "--out", str(out)])
        assert len(out.read_text().strip().splitlines()) == 3

    def test_egraph(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["egraph", "--points", str(_cloud(tmp_path)), "--eps", "0.6",
                 "--mode", "kdtree", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fn_count"] == 0 and summary["fp_count"] == 0

    def test_bad_shots(self):
        with pytest.raises(SystemExit):
            main(["swap-test", "--shots", "0"])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["mystery"])


def _readme_cli_lines():
    """The ``swaplab ...`` commands of the README's CLI code block, with
    backslash continuations joined."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("swaplab ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_parse(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.runner)
    # main runs the runner of that name in harness: it must be this one
    assert getattr(harness, args.runner.__name__) is args.runner


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the package and its CLI must not load it
    code = (
        "import sys, swaplab, swaplab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_modules_are_the_namespace():
    # the package binds no public name of its own; the CLI loads, as package
    # attributes, the modules that perfbench's Tracer.install patches
    code = (
        "import sys, swaplab\n"
        "print(sorted(n for n in vars(swaplab) if not n.startswith('_')))\n"
        "print('numpy' in sys.modules)\n"
        "import swaplab.cli, types\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from spans import MODULES\n"
        "print(len(MODULES), all(isinstance(getattr(swaplab, m, None), "
        "types.ModuleType) for m in MODULES))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(README.parent / "perfbench")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n6 True\n"


def _cloud(tmp_path):
    cloud = tmp_path / "cloud.csv"
    angles = [math.radians(15 * k) for k in range(5)]
    cloud.write_text(
        "\n".join(f"{math.cos(a)!r},{math.sin(a)!r}" for a in angles) + "\n"
    )
    return cloud


def _written(out):
    """The bytes of ``out``, or of every file in it if it is a directory."""
    if out.is_dir():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return out.read_bytes()


def _output_bytes(args, out):
    """Run the CLI writing to ``out`` and return the bytes it wrote (every
    file of the output directory, for egraph)."""
    run_cli(args + ["--out", str(out)])
    return _written(out)


def _fresh_output_bytes(args, out):
    """As ``_output_bytes``, from the CLI in a fresh child process."""
    proc = _swaplab(*args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return _written(out)


class TestSharedParser:
    """``main`` parses every call in a process with one parser, and runs the
    runner that ``harness`` holds at the time of the call."""

    def test_two_calls_build_the_parser_once(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert main(["lemma1"]) == 0
        first = list(built)
        assert main(["lemma1"]) == 0
        # the first call builds the tree unless an earlier one did
        assert first.count("swaplab") <= 1 and built == first
        assert build_parser() is build_parser()

    def test_no_flag_carries_to_the_next_call(self, tmp_path):
        base = ["egraph", "--points", str(_cloud(tmp_path)), "--eps", "0.6"]
        flagged = _output_bytes(
            base + ["--mode", "kdtree", "--seed", "3", "--format", "json"],
            tmp_path / "flagged",
        )
        plain = _output_bytes(base, tmp_path / "plain")
        assert plain == _fresh_output_bytes(base, tmp_path / "fresh")
        assert plain["summary.json"] != flagged["summary.json"]  # mode, seed

    def test_bad_flag_leaves_nothing_behind(self, tmp_path, capsys):
        # every flag before --bogus is parsed into the namespace, then argparse
        # exits; the next call must see none of them
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n-list", "2", "--alpha-grid", "0.5", "--p-grid", "0.9",
                  "--format", "json", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        good = ["bounds", "--n-list", "2"]
        assert (_output_bytes(good, tmp_path / "after.csv")
                == _fresh_output_bytes(good, tmp_path / "fresh.csv"))

    def test_runner_replaced_after_the_parser_is_built(self, monkeypatch, capsys):
        assert main(["lemma1"]) == 0
        assert capsys.readouterr().out.startswith("alpha,p,")
        monkeypatch.setattr(harness, "run_lemma1_example",
                            lambda: ([{"patched": 1}], {}))
        assert main(["lemma1"]) == 0
        assert capsys.readouterr().out == "patched\r\n1\r\n"


UNSEEDED = [
    ["pair-map", "--n", "4"],
    ["bounds", "--n-list", "1..3"],
    ["lemma1"],
    ["scaling", "--n-list", "4,8"],
    ["gatecount", "--n-list", "4"],
]
SEEDED = [
    ["swap-test", "--theta2", "1.0", "--shots", "100"],
    ["eq1-audit", "--n", "4", "--trials", "1"],
    ["egraph", "--eps", "0.6", "--mode", "quantum-standard", "--shots", "100"],
]


class TestSeedFlag:
    def test_every_subcommand_is_covered(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1)
        assert {args[0] for args in UNSEEDED + SEEDED} == set(listed.split(","))

    @pytest.mark.parametrize("args", UNSEEDED, ids=lambda a: a[0])
    def test_unseeded_output_ignores_seed(self, tmp_path, args):
        plain = _output_bytes(args, tmp_path / "plain")
        seeded = _output_bytes(args + ["--seed", "5"], tmp_path / "seeded")
        assert plain == seeded

    @pytest.mark.parametrize("args", SEEDED, ids=lambda a: a[0])
    def test_seed_reaches_seeded_runner(self, tmp_path, args):
        if args[0] == "egraph":
            args = args + ["--points", str(_cloud(tmp_path))]
        one = _output_bytes(args + ["--seed", "1"], tmp_path / "one")
        two = _output_bytes(args + ["--seed", "2"], tmp_path / "two")
        assert one != two


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["lemma1"],
            ["bounds", "--n-list", "1..20"],
            ["scaling", "--n-list", "4,8,16,32"],
            ["gatecount", "--n-list", "4,8,16"],
            ["eq1-audit", "--n", "4", "--trials", "3", "--seed", "11"],
            ["pair-map", "--n", "8"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_byte_identical(self, tmp_path, args, fmt):
        out1 = tmp_path / f"a.{fmt}"
        out2 = tmp_path / f"b.{fmt}"
        run_cli(args + ["--format", fmt, "--out", str(out1)])
        run_cli(args + ["--format", fmt, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_egraph_rerun_byte_identical(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        angles = [math.radians(12 * k) for k in range(6)]
        cloud.write_text(
            "\n".join(f"{math.cos(a)!r},{math.sin(a)!r}" for a in angles) + "\n"
        )
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_cli(["egraph", "--points", str(cloud), "--eps", "0.7",
                     "--mode", "quantum-standard", "--shots", "500",
                     "--seed", "7", "--out", str(out)])
            outs.append(out)
        for fname in ("reference_edges.csv", "estimate_edges.csv",
                      "estimates.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
