"""swaplab benchmark: seeded workloads driven through ``swaplab.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: classical_egraph, bounds_sweep, quantum_pairs, quantum_multi
(see workloads.py and BENCHMARK.json for why each exists).  Each run starts
fresh worker processes with the BLAS/OpenMP pools pinned to one thread: two
that only set up (for the set-up median) and one that sets up, measures
and checks.  Every unit's output is checked against an oracle; the last
stdout line is the JSON result.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.

Exits non-zero without a result when the checkout has no swaplab source.
Everything it writes goes to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
from layout import HERE, ROOT, SRC, result_path, work_dir

SETUP_PROBES = 2
# a worker may take this long for its set-up; the measuring one also gets
# twice --seconds, since its last pass starts before --seconds and runs on
SETUP_ALLOWANCE_S = 30.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nearest_rank(values, q):
    """Smallest sample with at least a share q of the samples at or below
    it; stays inside one stratum of a mixed unit list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def unit_latencies(passes, key):
    """Each unit's latency: the least of its times over the passes.  Some
    slow spells of the host do not show in the probe; they only ever add
    time, and the least time drops them."""
    return [min(col) for col in zip(*(p[key] for p in passes))]


def machine_record() -> dict:
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
    }


def spawn(args, setup_only) -> dict:
    """Run one worker process to completion and return its result."""
    work, result = work_dir(args.workload), result_path(args.workload)
    env = dict(os.environ)
    # one thread per pool: the workloads are single-threaded closed loops
    env.update({var: "1" for var in THREAD_VARS})
    env.update({"PYTHONPATH": SRC, "PYTHONHASHSEED": "0",
                "TMPDIR": os.path.join(work, "tmp")})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(result):
        os.remove(result)
    cmd += ["--spawned", repr(time.monotonic())]
    timeout = SETUP_ALLOWANCE_S + (0 if setup_only else 2 * args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {timeout:g} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "swaplab", "__init__.py")):
        print(f"perfbench: no swaplab source under {SRC}", file=sys.stderr)
        return 2

    work = work_dir(args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    setup_runs = [spawn(args, True) for _ in range(SETUP_PROBES)]
    res = spawn(args, False)
    setup_runs.append(res)
    res["setup_runs"] = [{k: r.pop(k) for k in ("setup_s", "setup_ref_s", "setup_probes_s")}
                         for r in setup_runs]
    res["machine"] = dict(machine_record(), **res.pop("versions"), threads_per_pool=1)
    with open(result_path(args.workload), "w") as fh:
        json.dump(res, fh, indent=1)

    untraced = [p for p in res["passes"] if not p["traced"]]
    plain = [x for p in untraced for x in p["unit_s"]]
    ref = [x for p in untraced for x in p["unit_ref_s"]]
    probes = [x for p in res["passes"] for pair in p["probe_s"] for x in pair]
    python_s = [x[0] for x in probes]
    vector_s = [x[1] for x in probes]
    print(f"workload {args.workload} seed {args.seed}: {len(res['passes'])} passes "
          f"of {res['units_per_pass']} units, closed loop, one thread")
    print("machine " + json.dumps(res["machine"]))
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} units)")
    print(f"host probe medians {statistics.median(python_s) * 1e3:.4g} ms (python, range "
          f"{min(python_s) * 1e3:.3g}-{max(python_s) * 1e3:.3g}) and "
          f"{statistics.median(vector_s) * 1e3:.4g} ms (numpy, range "
          f"{min(vector_s) * 1e3:.3g}-{max(vector_s) * 1e3:.3g}) over {len(probes)} probes; "
          f"times below are in reference seconds (see hostspeed.py)")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        raw_unit = unit_latencies(untraced, "unit_s")
        print(f"raw wall: units_per_s {len(plain) / sum(plain):.6g}, "
              f"unit_ms_p50 {1e3 * nearest_rank(raw_unit, 0.5):.6g}, "
              f"unit_ms_p90 {1e3 * nearest_rank(raw_unit, 0.9):.6g}, "
              f"setup_s {statistics.median(r['setup_s'] for r in res['setup_runs']):.6g}")
        ref_unit = unit_latencies(untraced, "unit_ref_s")
        metrics = {
            "units_per_s": {"value": len(ref) / sum(ref), "unit": "1/s"},
            "unit_ms_p50": {"value": 1e3 * nearest_rank(ref_unit, 0.5), "unit": "ms"},
            "unit_ms_p90": {"value": 1e3 * nearest_rank(ref_unit, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(r["setup_ref_s"] for r in res["setup_runs"]),
                        "unit": "s"},
        }
        print(f"unit latency samples {len(plain)}: {len(ref_unit)} units x "
              f"{len(untraced)} passes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
