"""Host-speed probe: two fixed pieces of work, timed around every unit.

On a shared virtual machine the CPU speed is not steady, and it is not one
speed.  On the 2-vCPU guest the first figures came from, the pure-Python
part of the probe takes about 2.9, 5.2 or 6.2 ms depending on what else the
host runs, and the numpy part moves with it only in part (3.5-5.2 ms over
the same minute, correlation 0.64 in log).  A state lasts from about a
second to minutes, and the mix drifts, so raw times of one run are not
comparable with those of a run made minutes later: over one ten-seed set,
raw quantum_pairs ``unit_ms_p90`` spread by 0.33 (IQR/median).

The worker times ``probe`` just before and just after every measured unit,
and reports each unit's time in *reference seconds*: its wall seconds times

    (PROBE_REF_S / python_s) ** a  *  (VECTOR_REF_S / vector_s) ** b

with each part's time the mean of the probes before and after the unit,
and ``(a, b)`` the unit's sensitivity to each part (``Unit.host_sensitivity``,
see workloads.py).  The figures read as if the host ran at the speed where
the probe parts take ``PROBE_REF_S`` and ``VECTOR_REF_S``.  Set-up time is
scaled the same way, between a probe at the start of the worker process
and one after its warm-up unit.

Why two parts: units follow the pure-Python part only in part, and by how
much changed from one half hour to the next.  The N = 10^4 bounds blocks,
numpy work on long vectors, moved with it at a log-log slope of 0.69 in one
set of runs and 0.02 in a later one, where scaling by it alone doubled the
spread of bounds_sweep ``unit_ms_p90`` over raw times.  The numpy part
tracks those blocks in both (slope 0.9), and the pure-Python part the
kd-tree.  One factor per run from the median probe, the first design,
moved with whichever host state held half of a run's probes; two ten-seed
sets of it on that guest spread bounds_sweep p90 by 0.40 and 0.23.  Raw
times and every probe time stay in result.json.
"""

import math
import time

import numpy as np

PROBE_REF_S = 0.005
VECTOR_REF_S = 0.004
PROBE_ITERATIONS = 7500
VECTOR_ITERATIONS = 20
PROBE_REPEATS = 2
# set-up (interpreter start, imports, input generation, one warm-up unit)
# spans a second or more and the probes around it often disagree; it
# moved with the pure-Python part at about half its rate over tuning runs
SETUP_SENSITIVITY = (0.5, 0.0)

_VECTOR = np.linspace(0.0, 1.0, 20000)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 65521


def _work(n: int) -> int:
    # calls, integer and float arithmetic, dict and list traffic: the
    # interpreter paths that the swaplab units spend their time on
    acc = 0
    buckets: dict[int, int] = {}
    values = []
    for i in range(n):
        x = _mix(i, acc)
        buckets[x & 255] = buckets.get(x & 255, 0) + 1
        values.append(math.sqrt(x) * 0.5)
        acc += x
    values.sort()
    return acc + len(buckets)


def _vector_work(n: int) -> float:
    # element-wise transcendental functions and a scan over a float64 vector
    # in the L2 cache: the numpy paths of the bounds tails and the gates
    acc = 0.0
    for _ in range(n):
        acc += float((np.log1p(np.cumsum(np.exp(-_VECTOR))) * _VECTOR).sum())
    return acc


def _best_of(work, n: int) -> float:
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        work(n)
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> tuple[float, float]:
    """Wall seconds of the pure-Python and the numpy part, each the faster
    of two runs."""
    return _best_of(_work, PROBE_ITERATIONS), _best_of(_vector_work, VECTOR_ITERATIONS)


def reference_s(wall_s: float, before: tuple[float, float], after: tuple[float, float],
                sensitivity: tuple[float, float]) -> float:
    """``wall_s`` in reference seconds, for work timed between two probes."""
    python_s = (before[0] + after[0]) / 2.0
    vector_s = (before[1] + after[1]) / 2.0
    a, b = sensitivity
    return wall_s * (PROBE_REF_S / python_s) ** a * (VECTOR_REF_S / vector_s) ** b
