"""One workload in one fresh process: set up, measure, check.

Started by run.py with the BLAS/OpenMP pools pinned in its environment and
``src`` as its only import path for swaplab.  Writes its result as JSON to
``.bench_work/<workload>/result.json``; stdout is not used, because
``swaplab egraph`` prints to it.

Setup (import, input generation, one untimed warm-up unit) is timed from the
parent's spawn timestamp.  The measured part is a closed loop: one thread,
each unit starts after the previous one returned and was checked.  Passes
over the same unit list repeat until ``--seconds`` have elapsed, so a run
measures whole passes, at least two whenever a pass is shorter than
``--seconds``.  A host-speed probe runs just before and just after every
unit, and each unit's time is also kept in reference seconds, from the
probes on either side of it (see hostspeed.py).  So is the set-up time,
from a probe at the start of the process and the one after the warm-up.
With ``--trace 1`` passes alternate untraced and traced, and the per-layer
figures come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy
import scipy

import checks
import hostspeed
import layout
import workloads

MAX_REPORTED = 5  # failures printed to stderr; all of them are counted


def _run_unit(package, unit) -> tuple[float, str | None]:
    """Wall seconds of one swaplab call, and its error text if it failed."""
    t0 = time.perf_counter()
    try:
        code = package.cli.main(list(unit.argv))
        error = None if code == 0 else f"exit code {code}"
    except Exception:  # a failing unit is counted, and the loop goes on
        error = traceback.format_exc()
    return time.perf_counter() - t0, error


class Ledger:
    """Checks each executed unit and keeps the counts behind fail_ratio."""

    def __init__(self):
        self.cache: dict = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, unit, error) -> bool:
        self.attempted += 1
        problems = [error] if error else checks.check(unit, self.cache)
        if not problems:
            got = checks.digest(unit)
            want = self.digests.setdefault(unit.key, got)
            if got != want:
                problems.append("output bytes differ from an earlier run of this unit")
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"[perfbench] {unit.key}: " + "; ".join(problems), file=sys.stderr)
        return not problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args()
    first_probe = hostspeed.probe()
    work = layout.work_dir(args.workload)
    result_path = layout.result_path(args.workload)

    import swaplab
    import swaplab.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.dirname(os.path.abspath(swaplab.__file__)) != os.path.join(layout.SRC, "swaplab"):
        raise SystemExit(f"swaplab imported from {swaplab.__file__}, not {layout.SRC}")
    units = workloads.build(args.workload, args.seed, work)
    warm = workloads.with_out(units[0], units[0].out + "_warmup")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _, warm_error = _run_unit(swaplab, warm)
    setup_s = time.monotonic() - args.spawned
    setup_probe = hostspeed.probe()
    result = {"setup_s": setup_s,
              "setup_ref_s": hostspeed.reference_s(setup_s, first_probe, setup_probe,
                                                   hostspeed.SETUP_SENSITIVITY),
              "setup_probes_s": [first_probe, setup_probe]}
    if args.setup_only:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    ledger = Ledger()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(swaplab)
    passes = []  # (traced, [unit wall s], [unit reference s], [[probe before, after]])
    t_start = time.monotonic()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        times, ref_times, probes = [], [], []
        for unit in units:
            before = hostspeed.probe()
            if traced:
                tracer.begin_unit(len(passes) * len(units) + len(times))
            with contextlib.redirect_stdout(sink):
                dt, error = _run_unit(swaplab, unit)
            if traced:
                tracer.end_unit()
            after = hostspeed.probe()
            sink.seek(0)
            sink.truncate()
            times.append(dt)
            ref_times.append(hostspeed.reference_s(dt, before, after, unit.host_sensitivity))
            probes.append([before, after])
            ledger.record(unit, error)
        passes.append((traced, times, ref_times, probes))
        if time.monotonic() - t_start >= args.seconds and (
                tracer is None or len(passes) >= 2):
            break
    # the warm-up ran unit 0 (same key) before the loop; its bytes must match
    ledger.record(warm, warm_error)

    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "units_per_pass": len(units),
        "passes": [{"traced": t, "unit_s": ts, "unit_ref_s": rs, "probe_s": ps}
                   for t, ts, rs, ps in passes],
        "measure_s": time.monotonic() - t_start,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    })
    if tracer is not None:
        tracer.uninstall()
        arrays = tracer.arrays()
        problems = spans.check_trees(arrays, tracer.names, "cli.main")
        if problems:
            raise SystemExit("span trees broken: " + "; ".join(problems[:5]))
        plain = [x for t, _, rs, _ in passes if not t for x in rs]
        traced_wall = [x for t, ts, _, _ in passes if t for x in ts]
        traced_ref = [x for t, _, rs, _ in passes if t for x in rs]
        layers = spans.layer_metrics(arrays, tracer.names, tracer.counters, len(traced_ref))
        # span times are wall times; scale them like the traced units' times
        k = sum(traced_ref) / sum(traced_wall)
        layers = {name: (v * k if u == "s" else v, u) for name, (v, u) in layers.items()}
        layers["trace.overhead_s"] = (
            sum(traced_ref) / len(traced_ref) - sum(plain) / len(plain), "s")
        result["per_layer"] = layers
        tracer.save(os.path.join(work, "spans.npz"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
