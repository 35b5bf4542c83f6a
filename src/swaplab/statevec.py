"""Dense state-vector simulation of a multi-qubit register.

Only the two gate types needed by the swap-test circuits are provided
(Hadamard and controlled-SWAP), plus basis/Bloch state preparation, exact
marginal extraction and seeded shot sampling.

Qubit ordering convention (fixed everywhere in this package): qubit 0 is
the MOST significant bit of the basis-state index.  For a 2-qubit register,
index 2 = binary ``10`` is the state |1>|0> with qubit 0 in |1>.

Each gate is one kernel that writes its result in place into ``out`` and
returns a StateVector over it.  Without ``out`` it first copies its input,
so a gate never mutates its input unless given that input's own buffer as
``out``.  ``circuits.simulate`` does exactly that, so a whole circuit holds
one state plus at most half a state of scratch (the Hadamard's).  Sampling
takes an explicit seed or Generator; there is no hidden global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Refuse to allocate registers above this size; 2^28 complex amplitudes is
# already 4 GiB.  Keeps "desk scale" honest.
MAX_QUBITS = 28

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ResourceError(RuntimeError):
    """Raised when a requested register or circuit exceeds MAX_QUBITS."""


def _check_num_qubits(num_qubits: int) -> None:
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ResourceError(
            f"{num_qubits} qubits exceeds the simulator ceiling of {MAX_QUBITS} "
            f"(2^{num_qubits} amplitudes)"
        )


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``num_qubits`` qubits as 2^n complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_num_qubits(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 per basis index."""
        p = np.abs(self.amplitudes)
        return np.square(p, out=p)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits} qubits"
            )


def make_basis_state(num_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on ``num_qubits`` qubits."""
    _check_num_qubits(num_qubits)
    if not 0 <= basis_index < 2**num_qubits:
        raise ValueError(
            f"basis index {basis_index} out of range for {num_qubits} qubits"
        )
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


def make_qubit_state(theta: float, phi: float) -> StateVector:
    """Single-qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    amps = np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )
    return StateVector(1, amps)


def tensor(states: Sequence[StateVector]) -> StateVector:
    """Kronecker product of the given states, in the given qubit order, in a
    fresh array that shares no memory with any input."""
    if not states:
        raise ValueError("tensor() needs at least one state")
    total = sum(s.num_qubits for s in states)
    _check_num_qubits(total)
    amps = states[0].amplitudes.copy()
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(total, amps)


def _gate_target(state: StateVector, out: np.ndarray | None) -> np.ndarray:
    """The array a gate writes into, holding the input amplitudes: a copy of
    them, or ``out`` (which may be ``state.amplitudes`` itself)."""
    if out is None:
        return state.amplitudes.copy()
    size = 2**state.num_qubits
    if not isinstance(out, np.ndarray) or out.dtype != np.complex128:
        got = getattr(out, "dtype", type(out).__name__)
        raise ValueError(f"out must be a complex128 array, got dtype {got}")
    if out.shape != (size,):
        raise ValueError(
            f"out must be of length {size} for {state.num_qubits} qubits, "
            f"got shape {out.shape}"
        )
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if not out.flags.writeable:
        raise ValueError("out must be writable, got a read-only array")
    if out is not state.amplitudes:
        np.copyto(out, state.amplitudes)
    return out


def apply_hadamard(
    state: StateVector, qubit: int, out: np.ndarray | None = None
) -> StateVector:
    """Hadamard on one qubit, written into ``out`` (see the module
    docstring).  Scratch: half a state."""
    state._check_qubit(qubit)
    n = state.num_qubits
    amps = _gate_target(state, out)
    halves = amps.reshape(2**qubit, 2, 2 ** (n - 1 - qubit))
    a0, a1 = halves[:, 0, :], halves[:, 1, :]
    diff = a0 - a1
    a0 += a1
    a0 *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=a1)
    return StateVector(n, amps)


def apply_cswap(
    state: StateVector, control: int, a: int, b: int, out: np.ndarray | None = None
) -> StateVector:
    """Controlled-SWAP (Fredkin): exchange qubits ``a`` and ``b`` where the
    control qubit is |1>, written into ``out`` (see the module docstring).

    A pure basis-index permutation, hence exactly unitary and exactly its own
    inverse (amplitudes are moved, never recombined): of the control=1
    amplitudes, only the two blocks whose bits a and b differ trade places,
    through one eighth of a state of scratch.
    """
    for q in (control, a, b):
        state._check_qubit(q)
    if len({control, a, b}) != 3:
        raise ValueError(f"cswap qubits must be distinct, got {(control, a, b)}")
    n = state.num_qubits
    amps = _gate_target(state, out)
    cube = amps.reshape((2,) * n)
    a_set, b_set = (
        tuple({control: 1, a: bit, b: 1 - bit}.get(q, slice(None)) for q in range(n))
        for bit in (1, 0)
    )
    held = cube[a_set].copy()
    cube[a_set] = cube[b_set]
    cube[b_set] = held
    return StateVector(n, amps)


def exact_marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Exact outcome probabilities of measuring the listed qubits.

    Returns a float64 array of the 2^k probabilities indexed by outcome
    number, the first listed qubit as the most significant bit.  They sum
    |amplitude|^2 over the unlisted qubits and add up to 1 within 1e-10.
    """
    qubits = list(qubits)
    for q in qubits:
        state._check_qubit(q)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"measurement qubits must be distinct, got {qubits}")
    n = state.num_qubits
    probs = state.probabilities().reshape((2,) * n)
    other = tuple(ax for ax in range(n) if ax not in qubits)
    marg = probs.sum(axis=other) if other else probs
    # marg axes are the kept qubits in increasing index order; reorder to the
    # requested order.
    kept_sorted = sorted(qubits)
    order = [kept_sorted.index(q) for q in qubits]
    return np.transpose(marg, axes=order).reshape(-1)


def check_shots(shots):
    """A shot budget: a whole number >= 1, returned as an int, or +inf for
    exact (infinite-shot) mode, returned as math.inf."""
    if shots == math.inf:
        return math.inf
    if not (shots >= 1 and shots == math.floor(shots)):  # NaN fails both
        raise ValueError(f"shots must be a whole number >= 1 or inf, got {shots}")
    return int(shots)


def sample_outcomes(
    state: StateVector,
    qubits: Sequence[int],
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> np.ndarray:
    """Draw ``shots`` i.i.d. measurement samples of the listed qubits.

    Returns int64 counts indexed by outcome number, as exact_marginal.
    Implemented as one multinomial draw over the exact marginal, which is
    statistically identical to repeated single-shot collapse for circuits
    measured once per run, and keeps 10^7-shot experiments cheap.
    Deterministic for a given integer seed; counts sum to ``shots``, which
    must be a finite whole number >= 1.
    """
    shots = check_shots(shots)
    if shots == math.inf:
        raise ValueError(f"shots must be finite to sample, got {shots}")
    pvals = np.clip(exact_marginal(state, qubits), 0.0, None)
    pvals /= pvals.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.multinomial(shots, pvals)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"inner product needs equal register sizes, got "
            f"{a.num_qubits} and {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
