"""Mutation checks: each mutant makes one textual change to a copy of
``src/swaplab`` and names the test node that must fail on it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the package is copied to a temporary directory and the
replacement applied; a replacement that does not match exactly once is an
error, so a mutant cannot go stale unnoticed (``tests/test_mutants.py``
applies every replacement in the suite, with no subprocess).  The named node then runs in
a subprocess with ``-o pythonpath=<copy>/src``: the project's own
``pythonpath = ["src"]`` would otherwise put the checkout ahead of
PYTHONPATH and test the unmutated code, so the subprocess also reports the
file it imported ``swaplab`` from, and the runner checks that it is the
copy's.  A mutant is killed when its test fails.  The file's name keeps it
out of the pytest collection, so the suite does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/swaplab
    old: str
    new: str
    node: str  # test node id, relative to the repository root


MUTANTS = (
    Mutant(
        "cut-without-control-in-targets",
        "statevec.py",
        "c in targets\n            or not fixed",
        "not fixed",
        "tests/test_statevec.py::TestCswapRun::test_controls_and_targets_mixed",
    ),
    Mutant(
        "cut-without-controls-limit",
        "statevec.py",
        "\n            or len(fixed | {c}) > most_controls",
        "",
        "tests/test_circuits.py::TestCircuitJson::test_runs_follow_the_block",
    ),
    Mutant(
        "last-pass-dropped",
        "statevec.py",
        "    _swap_pass(cube, gates[start:])\n",
        "",
        "tests/test_statevec.py::TestCswapRun::test_matches_per_gate_chain",
    ),
    Mutant(
        "run-composed-in-reverse",
        "statevec.py",
        "for c, x, y in steps:",
        "for c, x, y in reversed(steps):",
        "tests/test_statevec.py::TestCswapRun::test_matches_per_gate_chain",
    ),
    Mutant(
        "lead-blocks-after-the-first-skipped",
        "statevec.py",
        "itertools.product((0, 1), repeat=len(lead))",
        "itertools.product((0,), repeat=len(lead))",
        "tests/test_statevec.py::TestBlockedKernels::test_real_block_cswap_18_qubits",
    ),
    Mutant(
        "cswap-gate-distinctness-dropped",
        "statevec.py",
        " or len(set(gate)) != 3",
        "",
        "tests/test_statevec.py::TestCswap::test_bad_gates_named",
    ),
    Mutant(
        "inv-sqrt2-one-ulp-high",
        "statevec.py",
        "_INV_SQRT2 = 1.0 / math.sqrt(2.0)",
        "_INV_SQRT2 = math.nextafter(1.0 / math.sqrt(2.0), 1.0)",
        "tests/test_statevec.py::TestBlockedKernels::test_hadamard_every_qubit",
    ),
    Mutant(
        "one-middle-block-left-unwritten",
        "statevec.py",
        "for block in blocks[1:-1]:",
        "for block in blocks[2:-1]:",
        "tests/test_circuits.py::TestCircuitJson::test_simulate_matches_reference_kernels",
    ),
    Mutant(
        "all-ones-block-canonical",
        "statevec.py",
        "for block in blocks[1:-1]:",
        "for block in blocks[1:]:",
        "tests/test_statevec.py::TestPrepare::test_every_ancilla_opened_matches_the_kernel",
    ),
    Mutant(
        "state-copy-dropped",
        "statevec.py",
        'np.require(self.amplitudes, np.complex128, ["C", "W"])',
        "np.asarray(self.amplitudes, dtype=np.complex128)",
        "tests/test_statevec.py::TestGateOut::test_state_holds_a_writable_contiguous_array",
    ),
    Mutant(
        "simulate-opening-unchecked",
        "circuits.py",
        'if sorted(g.qubits[0] for g in opening if g.kind == "h") != list(range(ancillas)):',
        "if False:",
        "tests/test_circuits.py::TestCircuitJson::test_simulate_needs_one_opening_hadamard_per_ancilla",
    ),
    Mutant(
        "u2-base-swaps-its-pair",
        "circuits.py",
        "    if len(regs) == 2:\n        return []",
        "    if len(regs) == 2:\n        return [(0, regs[0], regs[1])]",
        "tests/test_circuits.py::TestUnCounts::test_u4",
    ),
    Mutant(
        "pair-trace-leaves-a-walk-on-its-register",
        "circuits.py",
        "pos[at_b] = ra",
        "pos[at_b] = rb",
        "tests/test_circuits.py::TestPairMap::test_matches_forward_label_tracking",
    ),
    Mutant(
        "byte-ceiling-exclusive",
        "statevec.py",
        "if nbytes > MAX_STATE_BYTES:",
        "if nbytes >= MAX_STATE_BYTES:",
        "tests/test_statevec.py::TestInvariants::test_ceiling_is_in_bytes",
    ),
    Mutant(
        "kd-leaf-test-inclusive",
        "egraph.py",
        "[0] < r_sq",
        "[0] <= r_sq",
        "tests/test_egraph.py::TestKDTreeTies",
    ),
    Mutant(
        "kd-over-prunes",
        "egraph.py",
        "prune_sq = r_sq * (1.0 + _PRUNE_SLACK * self.dim)",
        "prune_sq = r_sq * (1.0 - 1e-9)",
        "tests/test_egraph.py::TestKDTree::test_nearest_pair_across_leaves_just_inside_eps",
    ),
    Mutant(
        "numpy-nan-guard-dropped",
        "harness.py",
        "if not nan.any():",
        "if True:",
        "tests/test_harness.py::TestWriters::test_numpy_columns_write_the_bytes_of_their_lists",
    ),
    Mutant(
        "list-nan-guard-dropped",
        "harness.py",
        " and not any(map(math.isnan, column))",
        "",
        "tests/test_harness.py::TestWriters::test_csv_nan_becomes_empty",
    ),
    Mutant(
        "lone-empty-field-unquoted",
        "harness.py",
        "'\"\"' if len(columns) == 1",
        "'' if len(columns) == 1",
        "tests/test_harness.py::TestWriters::test_csv_single_empty_column",
    ),
    Mutant(
        "all-nan-column-as-digits",
        "harness.py",
        "return empty, None",
        'return "%.17g", np.ndarray.tolist',
        "tests/test_harness.py::TestEdgeListOutput::test_classical_rows_have_empty_estimate",
    ),
    Mutant(
        "csv-columns-converted-whole",
        "harness.py",
        "args = [(c, f) for c, (_, f)",
        "args = [(f(c), list) for c, (_, f)",
        "tests/test_harness.py::TestWriters::test_numpy_columns_are_converted_a_block_at_a_time",
    ),
    Mutant(
        "json-block-separator-dropped",
        "harness.py",
        '"," * (start > 0)',
        '""',
        "tests/test_harness.py::TestWriters::test_numpy_columns_write_the_bytes_of_their_lists[json]",
    ),
    Mutant(
        "keyless-json-rows-dropped",
        "harness.py",
        "if columns else len(records)",
        "if columns else 0",
        "tests/test_harness.py::TestWriters::test_empty_tables[json]",
    ),
    Mutant(
        "edge-row-one-pair-late",
        "harness.py",
        "+ (j - i - 1)]",
        "+ (j - i)]",
        "tests/test_harness.py::TestEdgeListOutput::test_quantum_rows_carry_estimates",
    ),
    Mutant(
        "edge-bytes-counted-per-tile",
        "egraph.py",
        "found += codes[-1].size",
        "found = codes[-1].size",
        "tests/test_egraph.py::TestBruteForceTiles::test_edges_checked_in_bytes_tile_by_tile",
    ),
    Mutant(
        "estimate-list-copied-unchecked",
        "harness.py",
        "if estimates is None and np.array_equal(estimate.codes, reference.codes):",
        "if estimates is None:",
        "tests/test_harness.py::TestEdgeListOutput::test_kdtree_estimate_without_an_edge_writes_its_own_list",
    ),
    Mutant(
        "scaling-kl-at-the-other-endpoint",
        "harness.py",
        '"kl_multi": stats.kl_bernoulli(alpha_multi, p_max)',
        '"kl_multi": stats.kl_bernoulli(alpha_multi, p_min)',
        "tests/test_golden.py::test_outputs_match_manifest",
    ),
    Mutant(
        "stirling-series-short-a-term",
        "stats.py",
        "(1 / 1260 - r2 * (1 / 1680 - r2 / 1188))",
        "(1 / 1260 - r2 / 1188)",
        "tests/test_stats.py::TestFalseNegativeExact::test_whole_default_grid_matches_pascal_oracle",
    ),
    Mutant(
        "snap-tolerance-uncapped",
        "stats.py",
        "<= min(1e-12 * N, _SNAP_CAP):",
        "<= 1e-12 * N:",
        "tests/test_stats.py::TestFalseNegativeExact::test_snap_tolerance_capped_at_large_n",
    ),
    Mutant(
        "tail-snapped-to-zero-above-one",
        "stats.py",
        "    if k <= 0:\n        return 1.0",
        "    if k <= 0:\n        return 1.5",
        "tests/test_stats.py::TestFalseNegativeExact::test_threshold_snapped_to_zero",
    ),
    Mutant(
        "fraction-branches-swapped",
        "stats.py",
        "upper = q < (k + 1) / (N + 3)",
        "upper = q >= (k + 1) / (N + 3)",
        "tests/test_stats.py::TestFalseNegativeExact::test_both_branches_match_fraction_oracle",
    ),
    Mutant(
        "complement-taken-as-the-tail",
        "stats.py",
        "else 1.0 - math.exp(log_tail)",
        "else math.exp(log_tail)",
        "tests/test_stats.py::TestFalseNegativeExact::test_both_branches_match_fraction_oracle",
    ),
    Mutant(
        "lentz-stops-on-a-step-below-one",
        "stats.py",
        "if abs(step - 1.0) <= _CF_EPS:",
        "if step - 1.0 <= _CF_EPS:",
        "tests/test_stats.py::TestFalseNegativeExact::test_near_alpha_matches_mpmath",
    ),
    Mutant(
        "logpmf-mean-rounding-uncorrected",
        "stats.py",
        "        - (1.0 - (n - k) / mp) * _rest(n * num, den, mp)\n",
        "",
        "tests/test_stats.py::TestFalseNegativeExact::test_near_alpha_matches_mpmath",
    ),
    Mutant(
        "kd-queries-start-at-one",
        "egraph.py",
        "self.queries = 0",
        "self.queries = 1",
        "tests/test_egraph.py::TestKDTree::test_query_counters",
    ),
    Mutant(
        "edge-code-i-equals-j-accepted",
        "egraph.py",
        "np.flatnonzero(scaled >= codes)",
        "np.flatnonzero(scaled > codes)",
        "tests/test_egraph.py::TestCompareGraphs::test_edge_validation",
    ),
    Mutant(
        "equal-graphs-diffed",
        "egraph.py",
        "if np.array_equal(reference.codes, estimate.codes):",
        "if False:",
        "tests/test_egraph.py::TestCompareGraphs::test_identical",
    ),
    Mutant(
        "stirling-index-15-to-14",
        "stats.py",
        "return _STIRLERR_SMALL[n]",
        "return _STIRLERR_SMALL[min(n, 14)]",
        "tests/test_stats.py::TestFalseNegativeExact::test_matches_fraction_oracle_small_n",
    ),
    Mutant(
        "parser-built-per-call",
        "cli.py",
        "@functools.cache\ndef build_parser",
        "def build_parser",
        "tests/test_cli.py::TestSharedParser::test_two_calls_build_the_parser_once",
    ),
    Mutant(
        "runner-bound-at-parser-build",
        "cli.py",
        'getattr(harness, kwargs.pop("runner").__name__)',
        'kwargs.pop("runner")',
        "tests/test_cli.py::TestSharedParser::test_runner_replaced_after_the_parser_is_built",
    ),
)

# runs pytest in the subprocess, then reports the swaplab it imported
_RUN = """\
import sys, pytest
code = pytest.main(sys.argv[1:])
module = sys.modules.get("swaplab")
print("imported swaplab from", getattr(module, "__file__", None))
sys.exit(code)
"""


def mutate(src: Path, mutant: Mutant) -> None:
    """Apply the mutant's one replacement to ``src``'s copy of its module."""
    path = src / "swaplab" / mutant.module
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(
            f"mutant {mutant.name}: {mutant.old!r} matches {count} times in "
            f"{mutant.module}, not once"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, float]:
    """'killed', 'survived' or an error line for one mutant, and its seconds."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="swaplab-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "swaplab", src / "swaplab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, mutant)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        args = ["-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
                mutant.node]
        proc = subprocess.run([sys.executable, "-c", _RUN, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        imported = lines[-1].removeprefix("imported swaplab from ") if lines else ""
        if not imported.startswith(str(src / "swaplab")):
            verdict = f"error: imported swaplab from {imported or 'nowhere'}"
        elif proc.returncode == 1:
            verdict = "killed"
        elif proc.returncode == 0:
            verdict = "survived"
        else:
            verdict = f"error: pytest exited {proc.returncode}"
    return verdict, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    not_killed = 0
    for mutant in chosen:
        verdict, seconds = run(mutant)
        not_killed += verdict != "killed"
        print(f"{verdict:8} {mutant.name} by {mutant.node} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen) - not_killed} of {len(chosen)} mutants killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
