"""Command-line entry point.

Subcommands: swap-test, pair-map, eq1-audit, bounds, lemma1, scaling,
gatecount, egraph.  Each subparser binds its runner in ``harness`` and names
its flags' destinations after that runner's keyword arguments, so ``main``
calls the runner with the parsed flags as they are.  ``--seed`` is accepted
everywhere and passed on only to the runners that take one.  All
configuration is explicit flags; no environment variables are consulted.
Reruns with identical flags and seed produce byte-identical output files.
A flag that takes a value takes the next token, even one that starts with
'-' (``--vec1 -1,0``, ``--phi2 -inf``), and a flag is read only when
spelled in full: ``--ep`` is not taken for ``--eps``.  A runner's ValueError or
ResourceError ends the run as an argparse error does: one line
``swaplab <sub>: error: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import harness
from .egraph import EXACT_SHOTS
from .statevec import ResourceError


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; "a..b" expands to the inclusive range,
    which must not be empty."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = map(int, part.split("..", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {part}: {lo} > {hi}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return value


def _parse_shots(text: str):
    if text.strip().lower() in ("inf", "infinity"):
        return EXACT_SHOTS
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"shots must be >= 1 or 'inf', got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose value-taking flags read the next token as
    their value, so a value may start with '-'.  Flags are not abbreviated,
    so a prefix cannot bypass that join.  Its subparsers are of the same
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._value_flags: set[str] = set()

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs is None:
            self._value_flags.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for token in tokens:
            value = next(tokens, None) if token in self._value_flags else None
            joined.append(token if value is None else f"{token}={value}")
        return super().parse_known_args(joined, namespace)


def _add_common(parser: argparse.ArgumentParser, runner) -> None:
    parser.set_defaults(runner=runner)
    parser.add_argument("--seed", type=_parse_seed, default=0, help="master RNG seed")
    parser.add_argument("--out", default=None, help="output path (stdout if omitted)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swaplab",
        description="Swap-test distance estimation lab: circuit audits, "
        "decision-error bounds and epsilon-graph experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("swap-test", help="run one two-state swap test")
    p.add_argument("--theta1", type=float, default=0.0)
    p.add_argument("--phi1", type=float, default=0.0)
    p.add_argument("--theta2", type=float, default=0.0)
    p.add_argument("--phi2", type=float, default=0.0)
    p.add_argument("--vec1", type=_parse_float_list, default=None,
                   help="comma-separated vector (amplitude-encoded)")
    p.add_argument("--vec2", type=_parse_float_list, default=None)
    p.add_argument("--shots", type=_parse_shots, default=EXACT_SHOTS,
                   help="repetitions, or 'inf' for exact decisions")
    _add_common(p, harness.run_swap_test)

    p = sub.add_parser("pair-map", help="outcome-to-pair map of the n-state circuit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=1)
    p.add_argument("--dump-circuit", default=None,
                   help="also write the circuit JSON dump to this path")
    _add_common(p, harness.run_pair_map)

    p = sub.add_parser("eq1-audit", help="audit the per-pair probability law")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=10)
    _add_common(p, harness.run_eq1_audit)

    p = sub.add_parser("bounds", help="exact tail vs the bound pair on a grid")
    p.add_argument("--n-list", dest="n_values", metavar="N_LIST",
                   type=_parse_int_list, default=list(range(1, 51)),
                   help="N values, e.g. '1..200' or '10,20,50'")
    p.add_argument("--alpha-grid", dest="alphas", metavar="ALPHA_GRID",
                   type=_parse_float_list, default=None)
    p.add_argument("--p-grid", dest="ps", metavar="P_GRID",
                   type=_parse_float_list, default=None)
    _add_common(p, harness.run_bounds_sweep)

    p = sub.add_parser("lemma1", help="worked sharpness example at (0.5, 0.9)")
    _add_common(p, harness.run_lemma1_example)

    p = sub.add_parser("scaling", help="repetition-count curves against n")
    p.add_argument("--n-list", type=_parse_int_list,
                   default=[4, 8, 16, 32, 64, 128, 256, 512, 1024])
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1.0)
    _add_common(p, harness.run_scaling_curves)

    p = sub.add_parser("gatecount", help="resource counts per circuit design")
    p.add_argument("--n-list", type=_parse_int_list, default=[4, 8, 16, 32])
    p.add_argument("--w", type=int, default=1)
    _add_common(p, harness.run_gatecount_report)

    p = sub.add_parser("egraph", help="classical vs quantum epsilon-graph trial")
    p.add_argument("--points", dest="points_path", metavar="POINTS", required=True,
                   help="CSV point cloud, one row per point")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--mode",
        choices=("brute", "kdtree", "quantum-standard", "quantum-naive", "quantum-multi"),
        default="brute",
    )
    p.add_argument("--shots", type=_parse_shots, default=EXACT_SHOTS)
    _add_common(p, harness.run_egraph_trial)

    return parser


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    subcommand = kwargs.pop("subcommand")
    runner = kwargs.pop("runner")
    out = kwargs.pop("out")
    fmt = kwargs.pop("format")
    if "seed" not in inspect.signature(runner).parameters:
        del kwargs["seed"]

    try:
        if subcommand == "egraph":
            out_dir = out or "egraph-out"
            _, _, diff = runner(out_dir=out_dir, fmt=fmt, **kwargs)
            print(f"false negatives: {diff.fn_count}, false positives: "
                  f"{diff.fp_count} (outputs in {out_dir})")
        else:
            records, meta = runner(**kwargs)
            harness.write_records(records, sys.stdout if out is None else out, fmt, meta)
    except (ValueError, ResourceError) as exc:
        # bad input, not a bug: reported as argparse reports a bad flag
        print(f"swaplab {subcommand}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
