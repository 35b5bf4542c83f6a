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

The exact tail is a regularized incomplete beta function.  With q = 1 - p
and k = ceil(N*(1-alpha)) >= 1,

    xi = I_q(k, N-k+1) = pmf(k) * p * CF(k, N-k+1, q),

where I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * CF(a, b, x), pmf(k) is that of
Bin(N, q), and CF is the continued fraction of Press et al., Numerical
Recipes 3rd ed. section 6.4 (betacf):

    CF = 1/(1 + d_1/(1 + d_2/(1 + ...))),
    d_2m = m(b-m)x / ((a+2m-1)(a+2m)),
    d_2m+1 = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)).

It converges fast while x < (a+1)/(a+b+2), that is q < (k+1)/(N+3); past
that point the tail is 1 - I_p(N-k+1, k) = 1 - pmf(k-1) * q * CF(N-k+1, k, p).
Near that point 1 + d_2m+1 is small, and the textbook Lentz loop loses up
to 2e-12 to the cancellation at N = 10^7.  So the fraction is evaluated
over its odd part,

    1/CF = D_0 + n_1/(D_1 + n_2/(D_2 + ...)),
    D_0 = 1 + d_1,  D_m = 1 + d_2m + d_2m+1,  n_m = -d_2m-1 * d_2m,

whose terms are all >= 0 on this side of the point (n_b = 0 ends it), by
modified Lentz.  The cancellation is left to D_m alone, and D_m is formed
from integers and rounded once: with 1 - x = y exactly,

    D_m = ((y+1) A_m - S) / ((a+2m-1)(a+2m+1)),
    A_m = a^2 + ab - a - b + 2am + 2m^2,  S = a^2 + 2ab - 2a - 2b + 1.

The prefactor is one saddle-point log-term (Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000) built on _stirlerr and _bd0;
its means N*q and N*p are rounded to doubles, and each deviance is
corrected by its slope times the exact rest of its mean.  The threshold
ceil(N*(1-alpha)) is taken in integer arithmetic from alpha's exact binary
fraction (see _threshold), and N must be a count that a float holds.

All functions are pure and safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import statevec
from .circuits import mid_ancilla_count

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# stirlerr(n) = ln n! - [n ln n - n + ln(2 pi n)/2]; exact (via lgamma) for
# n <= 15, asymptotic series above.  The saddle-point probability form built
# on it keeps a pmf term accurate to ~1e-13 relative up to N = 10^6, where
# differencing large log-gamma values alone would lose ~7 digits.
_STIRLERR_SMALL = (0.0,) + tuple(
    math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _HALF_LN_2PI
    for n in range(1, 16)
)


def _stirlerr(n: int) -> float:
    if n < 16:
        return _STIRLERR_SMALL[n]
    # in powers of 1/n, which underflow to 0 where powers of n would overflow
    r = 1.0 / n
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))


_BD0_MAX_TERMS = 100


def _bd0(x: float, m: float) -> float:
    """Binomial deviance x*ln(x/m) + m - x for x > 0, stable for x near m.
    Far from m it is x*log1p(d/m) - d with d = x - m, which leaves m - x
    uncancelled."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log1p(d / m) - d
    v = d / (x + m)
    s, ej, v2 = d * v, 2.0 * x * v, v * v
    # |v| < 0.1 here, so each term shrinks the next by 100x and double
    # precision converges within a dozen terms
    for j in range(1, _BD0_MAX_TERMS + 1):
        ej *= v2
        s_new = s + ej / (2 * j + 1)
        if s_new == s:
            return s
        s = s_new
    raise RuntimeError(f"_bd0 series did not converge in {_BD0_MAX_TERMS} terms")


def _binom_logpmf(k: int, n: int, p: float) -> float:
    """ln P(Bin(n, q) = k) for 0 <= k <= n at the exact q = 1 - p of the
    double p, in Loader's saddle-point form.  The means n*q and n*p (and q
    itself) are rounded to doubles; d bd0(x, m)/dm = 1 - x/m, so each
    deviance is corrected by that slope times the exact rest of its mean."""
    q = 1.0 - p
    num, den = p.as_integer_ratio()
    if k == 0:
        return n * math.log(p)
    if k == n:
        return n * (math.log(q) + _rest(den - num, den, q) / q)
    mq, mp = n * q, n * p
    return (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, mq) - _bd0(n - k, mp)
        + 0.5 * (math.log(n) - math.log(2.0 * math.pi) - math.log(k) - math.log(n - k))
        - (1.0 - k / mq) * _rest(n * (den - num), den, mq)
        - (1.0 - (n - k) / mp) * _rest(n * num, den, mp)
    )


def _rest(num: int, den: int, x: float) -> float:
    """num/den - x for integers num, den > 0 and a float x, rounded once."""
    u, v = x.as_integer_ratio()
    return (num * v - u * den) / (den * v)


def _check_count(N) -> int:
    """N as a Python int; ValueError unless N is an integer >= 1 that a
    float can hold (the tail works in doubles)."""
    try:
        n = operator.index(N)
    except TypeError:  # not an integer (a float too): rejected below
        n = 0
    if n < 1:
        raise ValueError(f"N must be a whole number >= 1, got {N}")
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"N must be below 2^1024, the float range, got {N}") from None
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


# The fraction stops when a step moves it by at most one ulp of 1, and a
# cell that needs more than _CF_MAX_STEPS steps is refused.  10^5 covers the
# cells with p - alpha >= 0.01*sqrt(alpha(1-alpha)/N) up to N = 10^13: there
# alpha = 0.1, 0.3, 0.5 and 0.7 took 72,415 to 84,379 steps.
_CF_EPS = 2.0**-52
_CF_MAX_STEPS = 10**5


def _beta_fraction(a: int, b: int, x: float, ynum: int, den: int) -> float | None:
    """1/CF(a, b, x) for x <= (a+1)/(a+b+2), where 1 - x = ynum/den exactly:
    the odd part of the fraction (see the module docstring) by modified
    Lentz.  None past _CF_MAX_STEPS steps."""
    y1, s = ynum + den, den * (a * a + 2 * a * b - 2 * a - 2 * b + 1)
    a_m = (a + b) * (a - 1)  # A_0
    f = c = (ynum * (a + b) - den * (b - 1)) / (den * (a + 1))  # D_0
    dd = 0.0
    af, bf = float(a), float(b)
    for m in range(1, _CF_MAX_STEPS + 1):
        a_m += 2 * a + 4 * m - 2
        j = a + 2 * m - 1
        d_m = (y1 * a_m - s) / (den * j * (j + 2))
        # n_m = -d_2m-1 * d_2m, as ratios that no float N overflows
        j = af + 2 * m - 1
        n_m = ((af + m - 1) / (j - 1) * ((af + bf + m - 1) / j) * x
               * (m / j * ((bf - m) / (j + 1)) * x))
        dd = 1.0 / (d_m + n_m * dd)
        c = d_m + n_m / c
        step = c * dd
        f *= step
        if abs(step - 1.0) <= _CF_EPS:
            return f
    return None


def false_negative_exact(N: int, alpha: float, p: float) -> float:
    """Exact false-negative probability: the upper binomial tail
    sum_{i=ceil(N(1-alpha))}^{N} C(N,i) (1-p)^i p^{N-i}, as the incomplete
    beta function of the module docstring.

    Relative error <= 1e-12 at the given double p, as measured: 2.2e-13 at
    worst over the default grid of N = 1..200 against exact Pascal sums, and
    near alpha (p = alpha + z*sqrt(alpha(1-alpha)/N), z = 0.5..30) 2.5e-13,
    1.2e-13 and 9.3e-14 at N = 10^5, 10^6 and 10^7 against 80-digit sums
    (1.4e-13 and 7e-14 at 10^8 and 10^9 for z = 10 and 30).  Raises
    statevec.ResourceError, naming the cell, when the continued fraction
    needs more than _CF_MAX_STEPS steps.
    """
    N = _check_count(N)
    _check_open_unit("alpha", alpha)
    _check_open_unit("p", p)
    k = tail_threshold(N, alpha)
    if k <= 0:
        return 1.0
    if k > N:
        return 0.0
    q = 1.0 - p
    upper = q < (k + 1) / (N + 3)
    num, den = p.as_integer_ratio()
    if upper:
        f = _beta_fraction(k, N - k + 1, q, num, den)
    else:
        f = _beta_fraction(N - k + 1, k, p, den - num, den)
    if f is None:
        raise statevec.ResourceError(
            f"the exact tail at N={N}, alpha={alpha}, p={p} needs more than "
            f"{_CF_MAX_STEPS} continued-fraction steps"
        )
    # pmf(k)*p*CF, or pmf(k-1)*q*CF in the complement, as one exp of summed
    # logs: a subnormal tail keeps every bit the exp gives it
    log_tail = (_binom_logpmf(k if upper else k - 1, N, p)
                + math.log(p if upper else q) - math.log(f))
    return math.exp(log_tail) if upper else 1.0 - math.exp(log_tail)


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
    estimated statistic; a quantum egraph's has one per pair i < j, keyed
    only by its place in the order of ``np.triu_indices(n, 1)``.

    p_hat is exactly hits/shots_total; overlap_sq_hat and distance_hat are
    clamped to their valid domains, with ``clamped`` flagging sampled entries
    whose raw inversion fell outside.  Exact-probability entries (infinite
    shots) carry shots_total = 0 and hits = 0 with p_hat set directly; they
    are clipped too but never flagged, since only rounding moves them out.
    """

    shots_total: np.ndarray
    hits: np.ndarray
    p_hat: np.ndarray
    overlap_sq_hat: np.ndarray
    distance_hat: np.ndarray
    clamped: np.ndarray


def estimate_overlaps(values, shots, constant=0.5) -> OverlapEstimate:
    """Invert p = constant * (1 + o^2) for every entry of ``values``: hit
    counts out of ``shots``, or exact probabilities when shots is infinite.
    ``constant`` is a scalar or one value per entry; the default 1/2 is the
    standard swap test, and a multi-state pair passes its calibrated
    coefficient (circuits.PairMap.pair_constant).  Every entry is validated.
    """
    values = np.asarray(values).reshape(-1)
    shots = statevec.check_shots(shots)
    counts = math.isfinite(shots) and values.dtype.kind in "iu"
    if not counts:
        values = values.astype(float, copy=False)
    if math.isfinite(shots):
        bad = (values < 0) | (values > shots)
        if not counts:
            bad |= values != np.floor(values)  # NaN too
        what = f"hits must be whole numbers in [0, {shots}]"
    else:
        shots = 0
        bad = ~((values >= 0.0) & (values <= 1.0))
        what = "probability must lie in [0, 1]"
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what}, got {float(values[k])} at entry {k}")
    if shots:  # integer counts are kept as they are: one copy of them
        hits = values.astype(np.int64, copy=False)
        p_hat = hits / shots
    else:
        hits, p_hat = np.zeros(values.size, dtype=np.int64), values
    raw = p_hat / constant - 1.0
    overlap_sq = np.clip(raw, 0.0, 1.0)
    return OverlapEstimate(
        shots_total=np.full(values.size, shots, dtype=np.int64),
        hits=hits,
        p_hat=p_hat,
        overlap_sq_hat=overlap_sq,
        distance_hat=np.sqrt(2.0 * (1.0 - np.sqrt(overlap_sq))),
        clamped=(shots > 0) & ~((raw >= 0.0) & (raw <= 1.0)),
    )
