"""Independent oracles used to freeze or check expected values.

These deliberately avoid the library's own code paths: the binomial tail is
summed term by term (exact rationals for small N, arbitrary precision with a
ratio recurrence for large N, or the Pascal recurrence over a whole grid),
never through the library's continued fraction; the log-pmf comes from
mpmath's log-gamma, not from the library's saddle-point terms; thresholds
are recomputed from scratch; and the per-pair swap-test statistics of the
quantum egraph come from simulating each pair's circuit on the state vector
instead of the closed-form law.  hadamard_reference, cswap_reference and
marginal_reference are the whole-array gate kernels and marginal, which the
library's blocked ones must match bit for bit; simulate_reference runs a
circuit through them from unopened_state, a state of its own np.kron chain.
forward_pair_map moves all n labels through every branch of the U_n swap
schedule, the route that circuits.derive_pair_map's backward trace of two
registers replaces.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations
from math import comb

import mpmath as mp
import numpy as np

from swaplab import circuits, egraph, statevec


def _snap_tolerance(N: int) -> float:
    """N*1e-12, capped at 1e-3 (decimal-intent boundary semantics, part of
    the tail definition)."""
    return min(1e-12 * max(1, N), 1e-3)


def oracle_threshold(N: int, alpha: float) -> int:
    """ceil(N * (1 - alpha)) over exact rationals, snapped to the nearest
    integer within _snap_tolerance(N)."""
    frac = Fraction(N) * (1 - Fraction(alpha))
    x = float(frac)
    nearest = round(x)
    if abs(x - nearest) <= _snap_tolerance(N):
        return int(nearest)
    return int(-((-frac) // 1))


def oracle_threshold_aligned(N: int, alpha: float) -> bool:
    """True when the rational N * (1 - alpha) is within _snap_tolerance(N)
    of an integer, the snap of oracle_threshold."""
    x = float(Fraction(N) * (1 - Fraction(alpha)))
    return abs(x - round(x)) <= _snap_tolerance(N)


def xi_fraction(N: int, alpha: float, p: float) -> Fraction:
    """Exact rational binomial tail; only sensible for small N."""
    k = oracle_threshold(N, alpha)
    q = 1 - Fraction(p)
    if k <= 0:
        return Fraction(1)
    if k > N:
        return Fraction(0)
    return sum(comb(N, i) * q**i * (1 - q) ** (N - i) for i in range(k, N + 1))


def xi_mpmath(N: int, alpha: float, p: float, dps: int = 50) -> mp.mpf:
    """Arbitrary-precision binomial tail via a term-ratio recurrence,
    truncated once the remaining terms are below 1e-45 relative."""
    with mp.workdps(dps):
        k = oracle_threshold(N, alpha)
        if k <= 0:
            return mp.mpf(1)
        if k > N:
            return mp.mpf(0)
        q = mp.mpf(1) - mp.mpf(p)
        pp = mp.mpf(p)
        mode = (N + 1) * q
        cutoff = mp.mpf("1e-45")
        if k > mode:
            # decaying upper tail: sum k..N forward
            term = mp.binomial(N, k) * q**k * pp ** (N - k)
            total = term
            for i in range(k, N):
                term = term * (N - i) / (i + 1) * q / pp
                total += term
                if term < total * cutoff:
                    break
            return total
        # bulk tail: 1 - sum 0..k-1, summed downward from k-1
        term = mp.binomial(N, k - 1) * q ** (k - 1) * pp ** (N - k + 1)
        total = term
        for i in range(k - 1, 0, -1):
            term = term * i / (N - i + 1) * pp / q
            total += term
            if term < total * cutoff:
                break
        return 1 - total


def xi_pascal_grid(n_max: int, alphas, ps) -> np.ndarray:
    """The exact tail at every (N, alpha, p) with N in 1..n_max, as an
    array indexed [N - 1, alpha index, p index], by the Pascal recurrence
    over the failure-count pmf P_N(i) = C(N, i) q^i p^(N-i), q = 1 - p:

        P_N(i) = p * P_(N-1)(i) + q * P_(N-1)(i-1),   P_0 = [1],

    one row N at a time for every p at once.  Suffix sums of row N give
    every tail sum_(i >= k) P_N(i); k = oracle_threshold(N, alpha), and the
    tail is 1 for k <= 0 and 0 for k > N.  The cost is O(n_max^2) per p, so
    this serves the default grids of N up to a few hundred, not N = 10^4.
    No term of the library's saddle-point form is used.

    Error bound.  Let u = 2^-53 and gamma_m = m*u / (1 - m*u).  p is taken
    exactly, and q = fl(1 - p) = (1 - p)(1 + t) with |t| <= u.  Every entry
    of row N is a sum over lattice paths of products of N factors p or q,
    i of them q; each level rounds one product and one sum.  All terms are
    non-negative, so no cancellation occurs and the relative errors do not
    grow in the sum: entry i of row N is P_N(i)(1 + e) with
    |e| <= gamma_(2N+i) <= gamma_(3N).  The suffix sum adds at most N + 1
    such terms in order (np.cumsum), at most gamma_N more.  Away from
    underflow each tail is therefore within gamma_(4N) relative of the tail
    at the given p, 8.9e-14 at N = 200, under a tenth of the library's
    1e-12 contract.  Underflow: a product below 2^-1022 rounds with an
    absolute error of at most 2^-1075 (a sum of subnormals is exact).  The
    recurrence carries an error made at row N' on to row N with weights that
    sum to (p + q)^(N - N') <= 1 + gamma_N, and rows 1..N hold
    N(N + 3)/2 entries, each two products, so a tail also differs by at most
    about N(N + 3) * 2^-1075 absolutely, 1e-319 at N = 200: it is bounded
    relatively only above about 1e-290."""
    ps = np.asarray(ps, dtype=float)
    q = (1.0 - ps)[:, None]
    p = ps[:, None]
    row = np.zeros((ps.size, n_max + 1))
    row[:, 0] = 1.0
    out = np.empty((n_max, len(alphas), ps.size))
    for N in range(1, n_max + 1):
        row[:, 1:N + 1] = p * row[:, 1:N + 1] + q * row[:, :N]
        row[:, 0] *= ps
        # suffix[:, k] = sum of P_N(i) over i >= k, added from i = N down
        suffix = np.cumsum(row[:, N::-1], axis=1)[:, ::-1]
        for a, alpha in enumerate(alphas):
            k = oracle_threshold(N, alpha)
            out[N - 1, a] = 1.0 if k <= 0 else 0.0 if k > N else suffix[:, k]
    return out


def binom_logpmf_mpmath(k: int, n: int, p: float, dps: int = 40) -> float:
    """ln P(Bin(n, q) = k) at the exact q = 1 - p of the double p, from
    mpmath's log-gamma at ``dps`` digits, rounded once to a float."""
    with mp.workdps(dps):
        pp = mp.mpf(p)
        return float(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                     + k * mp.log(1 - pp) + (n - k) * mp.log(pp))


def bd0_mpmath(x: float, m: float, dps: int = 40) -> float:
    """The binomial deviance x ln(x/m) + m - x at ``dps`` digits, rounded
    once to a float."""
    with mp.workdps(dps):
        x, m = mp.mpf(x), mp.mpf(m)
        return float(x * mp.log(x / m) + m - x)


def hadamard_reference(state, qubit):
    """Hadamard on ``qubit`` over the whole state at once, in a fresh array:
    the same four elementwise operations as the blocked kernel, with half a
    state of scratch."""
    n = state.num_qubits
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    amps = state.amplitudes.copy()
    halves = amps.reshape(2**qubit, 2, 2 ** (n - 1 - qubit))
    a0, a1 = halves[:, 0, :], halves[:, 1, :]
    diff = a0 - a1
    a0 += a1
    a0 *= inv_sqrt2
    np.multiply(diff, inv_sqrt2, out=a1)
    return statevec.StateVector(n, amps)


def cswap_reference(state, control, a, b):
    """Controlled-SWAP over the whole state at once, in a fresh array: the
    control=1 block with bits (a, b) = (1, 0) trades places with the one with
    (0, 1)."""
    n = state.num_qubits
    amps = state.amplitudes.copy()
    cube = amps.reshape((2,) * n)
    a_set, b_set = (
        tuple({control: 1, a: bit, b: 1 - bit}.get(q, slice(None)) for q in range(n))
        for bit in (1, 0)
    )
    held = cube[a_set].copy()
    cube[a_set] = cube[b_set]
    cube[b_set] = held
    return statevec.StateVector(n, amps)


def marginal_reference(state, k):
    """``statevec.exact_marginal`` over the whole state at once: |amp|^2 of
    every amplitude in one array, summed over the axes of all qubits but the
    leading ``k``."""
    n = state.num_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape((2,) * n)
    other = tuple(range(k, n))
    marg = probs.sum(axis=other) if other else probs
    return marg.reshape(-1)


def unopened_state(ancillas, inputs):
    """``ancillas`` qubits in |0...0> ahead of the input registers, before
    any gate: the inputs' np.kron chain (from 1) in the first amplitudes and
    zeros after them.  Multiplying by a basis state instead, 1 + 0j, could
    flip the sign of a zero part."""
    product = functools.reduce(
        np.kron, [s.amplitudes for s in inputs], np.ones(1, dtype=np.complex128)
    )
    amps = np.zeros(2**ancillas * product.size, dtype=np.complex128)
    amps[: product.size] = product
    return statevec.StateVector(ancillas + sum(s.num_qubits for s in inputs), amps)


def simulate_reference(circuit, inputs):
    """``circuits.simulate`` gate by gate, the opening Hadamards included,
    with the whole-array kernels, from ``unopened_state``: the ancillas lead
    and start in |0...0>."""
    state = unopened_state(circuit.layout.ancilla_count, inputs)
    for g in circuit.gates:
        gate = hadamard_reference if g.kind == "h" else cswap_reference
        state = gate(state, *g.qubits)
    return state


def forward_pair_map(n):
    """(pairs, multiplicity) of U_n by forward label tracking: a row of the
    labels 1..n per mid outcome, swapped through the whole schedule in the
    rows where the swap's ancilla bit is set (the first mid ancilla is the
    most significant bit); registers 1 and 2 hold the outcome's ordered
    pair.  Every row stays a permutation of the labels."""
    d = circuits.mid_ancilla_count(n)
    bits = (np.arange(2**d)[:, None] >> (d - 1 - np.arange(d))) & 1
    contents = np.tile(np.arange(1, n + 1), (2**d, 1))
    for anc, ra, rb in circuits.un_register_swaps(n):
        on = bits[:, anc] == 1
        contents[on, ra], contents[on, rb] = contents[on, rb], contents[on, ra]
    assert np.array_equal(np.sort(contents, axis=1), np.tile(np.arange(1, n + 1), (2**d, 1)))
    pairs = contents[:, :2].astype(np.int64)
    multiplicity = {}
    for a, b in pairs.tolist():
        key = (min(a, b), max(a, b))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return pairs, multiplicity


def per_pair_swap_tests(cloud, shots, seed=0):
    """The swap-test ancilla-0 statistic of every pair i < j by state-vector
    simulation: each pair's circuit is simulated, then read exactly (the
    probability, for shots = inf) or sampled with ``shots`` shots (the hit
    count), every pair in turn from the one stream SeedSequence([seed]).
    Returns {(i, j): probability or hits}, as Python scalars."""
    encoded = [egraph.encode_point(point) for point in cloud.points]
    circuit = circuits.build_swap_test(encoded[0].num_qubits)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    table = {}
    for i, j in combinations(range(len(encoded)), 2):
        state = circuits.simulate(circuit, [encoded[i], encoded[j]])
        if shots == float("inf"):
            table[(i, j)] = statevec.exact_marginal(state, 1)[0].item()
        else:
            table[(i, j)] = statevec.sample_outcomes(state, 1, shots, rng)[0].item()
    return table


def multi_pair_probabilities(cloud):
    """Exact P(top = 0, pair) of every pair i < j of real inputs in the
    multi-state circuit by state-vector simulation: the exact marginal of the
    measured qubits (top = 0 is its first half), summed over each pair's mid
    outcomes in outcome order.  Returns {(i, j): (probability,
    pair_constant)}."""
    encoded = [egraph.encode_point(point) for point in cloud.points]
    w = encoded[0].num_qubits
    padded = circuits.pad_inputs(encoded, w)
    circuit = circuits.build_multiswap_full(len(padded), w)
    pair_map = circuits.derive_pair_map(len(padded))
    state = circuits.simulate(circuit, padded)
    marginal = statevec.exact_marginal(state, circuit.layout.ancilla_count)
    top0 = marginal[: marginal.size // 2].tolist()
    table = {}
    for p, pair in zip(top0, pair_map.pairs.tolist()):
        a, b = sorted(pair)  # 1-based register labels
        if b <= len(encoded):
            table[a - 1, b - 1] = table.get((a - 1, b - 1), 0.0) + p
    return {
        (i, j): (table[i, j], pair_map.pair_constant(i + 1, j + 1))
        for i, j in sorted(table)
    }
