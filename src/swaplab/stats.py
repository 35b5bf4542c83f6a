"""Closed-form statistics of the swap-test decision problem.

Probability/overlap/distance conversions, the epsilon thresholds, the exact
false-negative tail, Bernoulli KL divergence, the Chernoff-Hoeffding bound
pair, the sharpness point, and the two scaling curves.

Conventions.  The swap test succeeds ("0" on the ancilla) with probability
p; a pair is declared an epsilon-neighbour iff the estimate p_hat exceeds
the threshold alpha strictly; the false-negative event is p_hat <= alpha
when truly p > alpha.  With X ~ Bin(N, 1-p) counting failures,

    xi(N, alpha, p) = P(X >= ceil(N*(1-alpha))).

Caveat on the bound pair: the upper bound exp(-N*KL(alpha||p)) holds for
every N whenever alpha < p, but the matching lower bound
exp(-N*KL)/sqrt(2N) is only guaranteed when N*(1-alpha) is an integer (the
ceiling in xi otherwise shifts the realized threshold above alpha, and the
exact tail can drop below the bound -- e.g. N=1, alpha=0.5, p=0.9 gives
xi=0.1 versus a "lower bound" of 0.424).

The exact tail sums a window of the binomial log-terms, k = ceil(N*(1-alpha))
up to an ``end`` at or past the peak max(k, floor((N+1)*(1-p))) where the
log-term is at least ln N + 40 below the largest one.  The pmf is
log-concave, so past its mode the terms fall and the N - end terms left out
add up to at most N*t_end <= e^-40 * t_max, under 4.3e-18 of the tail.  The
window starts 64 + 8*sqrt(N*p*(1-p)) terms past the peak and doubles until
that holds or reaches N, unless its kernel would pass the simulator's byte
ceiling.  For N < 2^17 the window reads _stirlerr and ln of [N, k..., N-k...]
from tables over the counts 0..2^17-1 (see _count_tables); above, it costs one
_stirlerr and one np.log call over that array.  Either way one _bd0 call
follows, over the rows [k...] and [N-k...] with the means N*q and N*p
broadcast along them.  All of these are elementwise, so the tables and this
fusing leave every term's bits as separate calls would.  The threshold
ceil(N*(1-alpha)) is taken in integer arithmetic from alpha's binary fraction
a/b, as N*(b-a)/b.

All functions are pure; the count tables are built once per process, on
the first call that reads them, and are read-only after.  Safe for
unrestricted parallel use.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import statevec
from .circuits import mid_ancilla_count

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# stirlerr(n) = ln n! - [n ln n - n + ln(2 pi n)/2]; exact (via lgamma) for
# n <= 15, asymptotic series above.  The saddle-point probability form built
# on it keeps the tail accurate to ~1e-13 relative up to N = 10^6, where
# differencing large log-gamma values alone would lose ~7 digits.
_STIRLERR_SMALL = np.array(
    [0.0]
    + [
        math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _HALF_LN_2PI
        for n in range(1, 16)
    ]
)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    small = n < 15.5
    safe = np.where(small, 1.0, n)
    series = (
        1.0 / (12.0 * safe)
        - 1.0 / (360.0 * safe**3)
        + 1.0 / (1260.0 * safe**5)
        - 1.0 / (1680.0 * safe**7)
        + 1.0 / (1188.0 * safe**9)
    )
    # n >= 0 here; entries past 15 read a table slot that np.where discards
    idx = np.minimum(n, 15.0).astype(int)
    return np.where(small, _STIRLERR_SMALL[idx], series)


_COUNT_TABLE_SIZE = 2**17


@functools.cache
def _count_tables() -> tuple[np.ndarray, np.ndarray]:
    """_stirlerr(i) and ln i for the counts 0 <= i < 2^17: two read-only
    float64 tables (2 MiB together), built whole on the first call, not on
    import.  Each entry comes from the same _stirlerr and np.log calls on the
    float i that the formula path makes, so both paths give the same bits."""
    stirlerr, log = np.empty(_COUNT_TABLE_SIZE), np.empty(_COUNT_TABLE_SIZE)
    # 4096 counts at a time, so that the fill's temporaries stay small
    for start in range(0, _COUNT_TABLE_SIZE, 4096):
        chunk = slice(start, start + 4096)
        counts = np.arange(chunk.start, chunk.stop, dtype=float)
        stirlerr[chunk] = _stirlerr(counts)
        with np.errstate(divide="ignore"):  # ln 0 = -inf
            log[chunk] = np.log(counts)
    stirlerr.flags.writeable = log.flags.writeable = False
    return stirlerr, log


_BD0_MAX_TERMS = 100

# e^-40 < 4.3e-18: the window's bound on the tail mass it leaves out
_TAIL_DROP = 40.0

# Bytes the tail kernel holds per window term at its peak, about 28 float64
# temporaries (tracemalloc read 205-221 at windows of 10^3 to 10^5 terms)
_WINDOW_BYTES_PER_TERM = 256


def _bd0(x: np.ndarray, m) -> np.ndarray:
    """Binomial deviance x*ln(x/m) + m - x, stable for x near m; ``m`` is a
    scalar or broadcasts to x's shape.  A branch no element takes is skipped."""
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    d, xm = x - m, x + m
    close = np.abs(d) < 0.1 * xm
    out = np.empty_like(x)
    near_count = np.count_nonzero(close)
    if near_count < close.size:
        far_at = ~close
        far, m_far = x[far_at], np.where(far_at, m, 0.0)[far_at]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(far > 0, far, 1.0) / m_far)
            out[far_at] = np.where(far > 0, far * logs, 0.0) + m_far - far
    if not near_count:
        return out
    near, d = x[close], d[close]
    v = d / xm[close]
    s, ej = d * v, 2.0 * near * v
    v2 = v * v
    # |v| < 0.1 where the series is used, so each term shrinks the next by
    # 100x and double precision converges within a dozen terms.  A converged
    # element stays put while the loop runs on for the others: every later
    # term is under a hundredth of half its ulp.
    for j in range(1, _BD0_MAX_TERMS + 1):
        ej = ej * v2
        s_new = s + ej / (2 * j + 1)
        converged = not np.count_nonzero(s_new != s)
        s = s_new
        if converged:
            out[close] = s
            return out
    raise RuntimeError(f"_bd0 series did not converge in {_BD0_MAX_TERMS} terms")


def _binom_logpmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """ln P(Bin(n, q) = k) with q = 1 - p, saddle-point form, vectorized over
    a 1-d array of integer k.  Taking p rather than q keeps n*p exact to the
    caller's p: re-deriving p from a rounded q would shift the log-pmf by
    ~1e-12 at n = 10^5.  Each helper runs once over both halves of the sum,
    or reads its count tables when n < 2^17 (see the module docstring); the
    terms are added in the textbook order."""
    k = np.asarray(k, dtype=float)
    q = 1.0 - p
    interior = (k > 0) & (k < n)
    endpoints = np.count_nonzero(interior) < k.size  # dummy n/2 at k = 0 and n
    kk = np.where(interior, k, 0.5 * n) if endpoints else k
    size = kk.size
    args = np.concatenate(([n], kk, n - kk))
    both = args[1:]
    if n < _COUNT_TABLE_SIZE:
        stirlerr, log = _count_tables()
        counts = args.astype(np.intp)  # a dummy n/2 truncates to a count
        st, logs = stirlerr[counts], log[counts[1:]]
    else:
        st, logs = _stirlerr(args), np.log(both)
    bd = _bd0(both.reshape(2, size), np.array([[n * q], [n * p]]))
    lf = (
        st[0] - st[1:size + 1] - st[size + 1:] - bd[0] - bd[1]
        + 0.5 * (math.log(n) - math.log(2.0 * math.pi) - logs[:size] - logs[size:])
    )
    if endpoints:
        lf[k == 0] = n * math.log(p)
        lf[k == n] = n * math.log(q) if q > 0 else -math.inf
    return lf


def _check_count(N) -> int:
    """N as a Python int; ValueError unless N is an integer >= 1."""
    try:
        n = operator.index(N)
    except TypeError:  # not an integer (a float too): rejected below
        n = 0
    if n < 1:
        raise ValueError(f"N must be a whole number >= 1, got {N}")
    return n


def _check_open_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value}")


def _check_ordering(alpha: float, p: float) -> None:
    _check_open_unit("alpha", alpha)
    _check_open_unit("p", p)
    if alpha >= p:
        raise ValueError(f"need alpha < p, got alpha={alpha}, p={p}")


def prob_to_overlap_sq(p: float) -> float:
    """Invert p = (1 + |<phi|psi>|^2)/2; result clamped to [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return min(1.0, max(0.0, 2.0 * p - 1.0))


def overlap_to_distance(overlap_abs: float) -> float:
    """Euclidean distance of unit vectors with |<phi|psi>| = overlap_abs:
    sqrt(2*(1 - overlap))."""
    if not 0.0 <= overlap_abs <= 1.0:
        raise ValueError(f"overlap modulus must lie in [0, 1], got {overlap_abs}")
    return math.sqrt(2.0 * (1.0 - overlap_abs))


def alpha_eps_standard(eps: float) -> float:
    """Success-probability threshold equivalent to distance < eps:
    ((1 - eps^2/2)^2 + 1) / 2."""
    if not 0.0 < eps <= math.sqrt(2.0):
        raise ValueError(f"eps must lie in (0, sqrt(2)], got {eps}")
    c = 1.0 - eps * eps / 2.0
    return (c * c + 1.0) / 2.0


def alpha_eps_multi(eps: float, n: int) -> float:
    """Multi-swap analogue of alpha_eps_standard, scaled by 2^4/n^3 to match
    the nominal per-pair probability (1 + overlap^2) * 2^3 / n^3."""
    mid_ancilla_count(n)  # argument validation for n
    return alpha_eps_standard(eps) * 16.0 / float(n) ** 3


def p0ij_theory(overlap_sq: float, n: int) -> float:
    """Nominal per-pair joint probability 2^3*(1 + overlap_sq)/n^3.

    This is the multiplicity-2 case of the exact per-pair law
    multiplicity * (1 + overlap_sq) / 2^{d_n+1}; see circuits.PairMap.
    """
    mid_ancilla_count(n)
    if not 0.0 <= overlap_sq <= 1.0:
        raise ValueError(f"overlap_sq must lie in [0, 1], got {overlap_sq}")
    return 8.0 * (1.0 + overlap_sq) / float(n) ** 3


def kl_bernoulli(a: float, p: float) -> float:
    """KL(Ber(a) || Ber(p)) = a*ln(a/p) + (1-a)*ln((1-a)/(1-p)).

    Evaluated through log1p of the parameter gap, which stays positive and
    accurate for nearly equal arguments where the textbook form cancels.
    """
    _check_open_unit("a", a)
    _check_open_unit("p", p)
    delta = p - a
    return -a * math.log1p(delta / a) - (1.0 - a) * math.log1p(-delta / (1.0 - a))


# Cap on the threshold snap's tolerance N*1e-12, far below 1/2: uncapped it
# reaches 1/2 at N = 5*10^11, and every N*(1-alpha) then snaps to its
# nearest integer.  The cap binds only past N = 10^9.
_SNAP_CAP = 1e-3


def _threshold(N: int, alpha: float) -> tuple[int, bool]:
    """(tail_threshold, threshold_aligned) from the exact rational
    N*(1-alpha) = N*(b-a)/b, where a/b is alpha's binary fraction.  Python's
    int true division rounds correctly, so x is that rational's nearest
    double."""
    N = _check_count(N)
    a, b = float(alpha).as_integer_ratio()
    num = N * (b - a)
    x = num / b
    nearest = round(x)
    if abs(x - nearest) <= min(1e-12 * N, _SNAP_CAP):
        return nearest, True
    return -(-num // b), False


def tail_threshold(N: int, alpha: float) -> int:
    """ceil(N*(1-alpha)), evaluated in exact rational arithmetic and snapped
    to the nearest integer when within min(N*1e-12, 1e-3) of one.

    The snap honours decimal intent: a threshold like 0.95 is not exactly
    representable in binary, and without it N*(1-alpha) can land a hair above
    the integer the caller meant, silently excluding a boundary count that the
    float decision rule p_hat <= alpha would include.
    """
    return _threshold(N, alpha)[0]


def threshold_aligned(N: int, alpha: float) -> bool:
    """True when N*(1-alpha) lands on an integer (same snap tolerance as
    tail_threshold).  This is the regime in which the exp(-N*KL)/sqrt(2N)
    lower bound on the exact tail is guaranteed."""
    return _threshold(N, alpha)[1]


def false_negative_exact(N: int, alpha: float, p: float) -> float:
    """Exact false-negative probability: the upper binomial tail
    sum_{i=ceil(N(1-alpha))}^{N} C(N,i) (1-p)^i p^{N-i}.

    Relative error <= 1e-12 for N up to 10^5 (worst measured 6.4e-13, near
    alpha).  Near alpha it grows past that: 1.79e-12 at N = 10^6, alpha =
    0.3, p = 0.313487321026845, and 6.5e-12 at N = 10^7, because the means
    N*q and N*p are rounded to doubles (ROADMAP item 9).  Only the window of
    terms described in the module docstring is summed; the terms past it add
    less than 4.3e-18 of the tail.  Raises statevec.ResourceError when that
    window would not fit in statevec.MAX_STATE_BYTES, or would be summed at
    an N of 2^64 or more.
    """
    N = _check_count(N)
    _check_open_unit("alpha", alpha)
    _check_open_unit("p", p)
    k = tail_threshold(N, alpha)
    if k <= 0:
        return 1.0
    if k > N:
        return 0.0
    peak = max(k, math.floor((N + 1) * (1.0 - p)))
    width = 64 + 8 * math.sqrt(N * p * (1.0 - p))
    drop = math.log(N) + _TAIL_DROP
    while True:
        end = min(N, peak + int(width))
        terms = end - k + 1
        statevec.check_bytes(
            terms * _WINDOW_BYTES_PER_TERM,
            f"the exact tail at N={N} sums a window of {terms} terms and",
        )
        # the log-pmf holds N beside the window's counts in one array, an
        # object array that np.log refuses once N reaches 2^64
        if N >= 2**64:
            raise statevec.ResourceError(
                f"the exact tail at N={N} needs N below 2^64, the limit of numpy's "
                "integer counts"
            )
        log_terms = _binom_logpmf(np.arange(k, end + 1), N, p)
        at = log_terms.argmax()
        top = log_terms[at]
        if end == N or log_terms[-1] <= top - drop:
            break
        width *= 2
    # max-shifted sum; the largest term enters as log1p's 1, keeping its digits
    rest = np.exp(log_terms - top)
    rest[at] = 0.0
    return min(1.0, math.exp(float(np.log1p(rest.sum())) + top))


def n_gamma(gamma: float, alpha: float, p: float) -> float:
    """Repetition count at which the Chernoff upper bound equals gamma:
    ln(1/gamma) / KL(alpha||p).  Real-valued; take the ceiling only when
    planning actual shot counts (the sharpness point lands at N = 1/2)."""
    _check_open_unit("gamma", gamma)
    if 1.0 / gamma == math.inf:  # a subnormal gamma
        raise ValueError(
            f"gamma must be at least 2^-1022 so that 1/gamma is finite, got {gamma}"
        )
    _check_ordering(alpha, p)
    return math.log(1.0 / gamma) / kl_bernoulli(alpha, p)


def chernoff_upper(N: float, alpha: float, p: float) -> float:
    """exp(-N*KL(alpha||p)): upper bound on the false-negative tail for
    alpha < p, any N > 0."""
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    _check_ordering(alpha, p)
    return math.exp(-N * kl_bernoulli(alpha, p))


def chernoff_lower(N: float, alpha: float, p: float) -> float:
    """exp(-N*KL(alpha||p)) / sqrt(2N).

    A valid lower bound on the exact tail when N*(1-alpha) is an integer;
    see the module docstring for the non-aligned caveat.
    """
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    _check_ordering(alpha, p)
    return math.exp(-N * kl_bernoulli(alpha, p)) / math.sqrt(2.0 * N)


def gamma_tilde(alpha: float, p: float) -> float:
    """Error level at which the lower bound is sharp: exp(-KL(alpha||p)/2),
    i.e. the gamma solving KL = 2*ln(1/gamma)."""
    _check_ordering(alpha, p)
    return math.exp(-kl_bernoulli(alpha, p) / 2.0)


def theorem1_calls(n: int, gamma: float) -> float:
    """Oracle-call scaling curve n^6 / (2^6 * gamma^2) for estimating all
    pairwise overlaps to expected L2 accuracy gamma (constant factor is the
    nominal 2^{2 d_n}; no absolute calibration is claimed)."""
    mid_ancilla_count(n)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    denominator = 64.0 * gamma * gamma
    # a gamma whose square underflows asks for more calls than a float holds
    return float(n) ** 6 / denominator if denominator else math.inf


def proposition1_lower(n: int, gamma_t: float) -> float:
    """Stated repetition lower-bound curve n^3 * ln(1/gamma_t) / ln(n)."""
    mid_ancilla_count(n)
    _check_open_unit("gamma_t", gamma_t)
    return float(n) ** 3 * math.log(1.0 / gamma_t) / math.log(n)


@dataclass(frozen=True, eq=False)
class OverlapEstimate:
    """Overlap/distance estimates as equal-length columns, one entry per
    estimated statistic (per pair, in pair order, when ``pairs`` is set).

    p_hat is exactly hits/shots_total; overlap_sq_hat and distance_hat are
    clamped to their valid domains, with ``clamped`` flagging sampled entries
    whose raw inversion fell outside.  Exact-probability entries (infinite
    shots) carry shots_total = 0 and hits = 0 with p_hat set directly; they
    are clipped too but never flagged, since only rounding moves them out.
    ``pairs`` is an optional (k, 2) int64 array of the (i, j) each entry
    belongs to.
    """

    shots_total: np.ndarray
    hits: np.ndarray
    p_hat: np.ndarray
    overlap_sq_hat: np.ndarray
    distance_hat: np.ndarray
    clamped: np.ndarray
    pairs: np.ndarray | None = None


def estimate_overlaps(values, shots, constant=0.5, pairs=None) -> OverlapEstimate:
    """Invert p = constant * (1 + o^2) for every entry of ``values``: hit
    counts out of ``shots``, or exact probabilities when shots is infinite.
    ``constant`` is a scalar or one value per entry; the default 1/2 is the
    standard swap test, and a multi-state pair passes its calibrated
    coefficient (circuits.PairMap.pair_constant).  Every entry is validated.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    shots = statevec.check_shots(shots)
    if math.isfinite(shots):
        bad = ~((values >= 0) & (values <= shots) & (values == np.floor(values)))
        what = f"hits must be whole numbers in [0, {shots}]"
    else:
        shots = 0
        bad = ~((values >= 0.0) & (values <= 1.0))
        what = "probability must lie in [0, 1]"
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what}, got {values[k]} at entry {k}")
    hits = values.astype(np.int64) if shots else np.zeros(values.size, dtype=np.int64)
    p_hat = hits / shots if shots else values
    raw = p_hat / constant - 1.0
    overlap_sq = np.clip(raw, 0.0, 1.0)
    return OverlapEstimate(
        shots_total=np.full(values.size, shots, dtype=np.int64),
        hits=hits,
        p_hat=p_hat,
        overlap_sq_hat=overlap_sq,
        distance_hat=np.sqrt(2.0 * (1.0 - np.sqrt(overlap_sq))),
        clamped=(shots > 0) & ~((raw >= 0.0) & (raw <= 1.0)),
        pairs=pairs if pairs is None else np.asarray(pairs, np.int64).reshape(-1, 2),
    )
