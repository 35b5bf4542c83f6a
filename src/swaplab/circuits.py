"""Builders and audits for the swap-test circuit family.

Circuits are plain gate lists over a fixed register layout:

    [top ancilla?][mid ancillas][input register 1]...[input register n]

Each input register is ``w`` qubits wide; a controlled register swap expands
to ``w`` CSWAPs, one per qubit position, so ``w`` covers both one qubit per
input dimension and amplitude-encoded registers.

The recursive n-state circuit (``build_un``) places every unordered pair of
the n input registers into registers 1 and 2, in superposition keyed by the
mid-ancilla basis states.  Its structure for n inputs (n a power of two):

    U_n = [U_{n/2} on registers 1..n/2]
          [U_{n/2} on registers n/2+1..n]     (same shared ancilla block)
          cswap(reg 1,  reg n/2+1) * new ancilla C
          cswap(reg 1,  reg n/2+2) * new ancilla B
          cswap(reg 2,  reg n/2+1) * new ancilla A

from the base case U_2, which has no ancilla and no swap: registers 1 and 2
already hold the one pair.  Ancillas are
allocated depth-first: the three new ancillas (A, B, C top to bottom) stack
on top of the shared block used by both sub-circuits, giving exactly
d_n = 3*log2(n/2) mid ancillas and 3n/2-3 register swaps.

All ancillas start in |0> and every circuit opens with one explicit
Hadamard on each ancilla, which ``simulate`` requires, so only two gate
kinds exist.  The ancillas lead the layout, so the measured qubits are the
leading ``ancilla_count`` ones.  CircuitSpec and PairMap are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Sequence

import numpy as np

from . import statevec
from .statevec import ResourceError, StateVector

# derive_pair_map enumerates all 2^{d_n} ancilla outcomes.
MAX_PAIR_MAP_INPUTS = 64


@dataclass(frozen=True)
class Gate:
    """One gate record: kind is "h" (1 qubit) or "cswap" (control, a, b)."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind == "h":
            if len(self.qubits) != 1:
                raise ValueError(f"h gate takes one qubit, got {self.qubits}")
        elif self.kind == "cswap":
            if len(self.qubits) != 3 or len(set(self.qubits)) != 3:
                raise ValueError(
                    f"cswap takes three distinct qubits, got {self.qubits}"
                )
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")


def hadamard(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def cswap(control: int, a: int, b: int) -> Gate:
    return Gate("cswap", (control, a, b))


@dataclass(frozen=True)
class RegisterLayout:
    """Names the qubits: optional top ancilla, mid ancillas (wire order),
    and input registers 1..n of width w."""

    n: int
    w: int
    top_ancilla: int | None
    mid_ancillas: tuple[int, ...]
    inputs: tuple[tuple[int, ...], ...]

    @property
    def total_qubits(self) -> int:
        return self.ancilla_count + self.n * self.w

    @property
    def ancilla_count(self) -> int:
        return (0 if self.top_ancilla is None else 1) + len(self.mid_ancillas)


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list over a register layout.  Resource counts are read
    from the gates and the layout, not stored."""

    layout: RegisterLayout
    gates: tuple[Gate, ...]

    def __post_init__(self):
        total = self.layout.total_qubits
        for g in self.gates:
            if any(q >= total for q in g.qubits):
                raise ValueError(
                    f"gate {g} references qubit outside the {total}-qubit layout"
                )

    @property
    def cswap_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cswap")


def _layout(n: int, w: int, top: bool, mid: bool) -> RegisterLayout:
    """[top ancilla if ``top``][d_n mid ancillas if ``mid``][n input
    registers of width w], numbered from qubit 0.  A bad width is reported
    before a bad n; a register wider than the simulator ceiling could not
    hold one input state."""
    if w < 1:
        raise ValueError(f"register width must be >= 1, got {w}")
    if w > statevec.MAX_QUBITS:
        raise ResourceError(
            f"register width {w} exceeds the simulator ceiling of "
            f"{statevec.MAX_QUBITS} qubits"
        )
    first_input = int(top) + (mid_ancilla_count(n) if mid else 0)
    return RegisterLayout(
        n=n,
        w=w,
        top_ancilla=0 if top else None,
        mid_ancillas=tuple(range(int(top), first_input)),
        inputs=tuple(
            tuple(range(first_input + i * w, first_input + (i + 1) * w))
            for i in range(n)
        ),
    )


def _closing_swap_test(layout: RegisterLayout) -> list[Gate]:
    """Swap test of registers 1 and 2 on the top ancilla: one CSWAP per
    qubit position, then H(top)."""
    top = layout.top_ancilla
    gates = [cswap(top, a, b) for a, b in zip(layout.inputs[0], layout.inputs[1])]
    return gates + [hadamard(top)]


def build_swap_test(w: int) -> CircuitSpec:
    """Standard two-state swap test on registers of width w.

    H(ancilla), then one CSWAP per qubit position, then H(ancilla).
    P(ancilla=0) = 1/2 + |<phi|psi>|^2 / 2.
    """
    layout = _layout(2, w, top=True, mid=False)
    return CircuitSpec(layout, (hadamard(0), *_closing_swap_test(layout)))


def build_naive_multiswap(n: int, w: int = 1) -> list[tuple[tuple[int, int], CircuitSpec]]:
    """One independent swap-test circuit per unordered pair of n inputs.

    Returns n(n-1)/2 entries of ((i, j), circuit) with 1-based input labels.
    The single ancilla is reusable between runs, so the battery needs O(1)
    ancillas but n(n-1)/2 * w CSWAPs per repetition round.
    """
    if n < 2:
        raise ValueError(f"need at least 2 inputs, got {n}")
    circuit = build_swap_test(w)
    return [((i, j), circuit) for i, j in combinations(range(1, n + 1), 2)]


def require_power_of_two(n: int) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 4, got {n}")


def mid_ancilla_count(n: int) -> int:
    """d_n = 3*log2(n/2) for n a power of two >= 4."""
    require_power_of_two(n)
    return 3 * int(math.log2(n // 2))


def _register_swaps(regs: list[int], ancs: list[int]) -> list[tuple[int, int, int]]:
    """Recursive (ancilla, register, register) swap schedule of U_n, down to
    U_2, which swaps nothing.

    ``regs`` are register ids, ``ancs`` mid-ancilla wire ids in top-to-bottom
    order (three fresh ancillas first, shared sub-block ancillas after).
    """
    if len(regs) == 2:
        return []
    (a, b, c), shared = ancs[:3], ancs[3:]
    half = len(regs) // 2
    swaps = _register_swaps(regs[:half], shared)
    swaps += _register_swaps(regs[half:], shared)
    swaps += [
        (c, regs[0], regs[half]),
        (b, regs[0], regs[half + 1]),
        (a, regs[1], regs[half]),
    ]
    return swaps


def un_register_swaps(n: int) -> list[tuple[int, int, int]]:
    """U_n schedule as (mid-ancilla wire, register index, register index),
    registers 0-based.  Length is exactly 3n/2 - 3."""
    d = mid_ancilla_count(n)
    return _register_swaps(list(range(n)), list(range(d)))


def _un_gates(layout: RegisterLayout) -> list[Gate]:
    """U_n on ``layout``: a Hadamard on every mid ancilla, then the register
    swap schedule expanded into one CSWAP per register qubit."""
    gates = [hadamard(q) for q in layout.mid_ancillas]
    for anc, ra, rb in un_register_swaps(layout.n):
        gates += [
            cswap(layout.mid_ancillas[anc], layout.inputs[ra][k], layout.inputs[rb][k])
            for k in range(layout.w)
        ]
    return gates


def build_un(n: int, w: int = 1) -> CircuitSpec:
    """The recursive n-state pairing circuit U_n (no final swap test).

    Uses (3n/2-3)*w CSWAPs and d_n = 3*log2(n/2) mid ancillas.
    """
    layout = _layout(n, w, top=False, mid=True)
    return CircuitSpec(layout, tuple(_un_gates(layout)))


def build_multiswap_full(n: int, w: int = 1) -> CircuitSpec:
    """U_n plus the final swap test between registers 1 and 2.

    Adds one top ancilla, w final CSWAPs and a closing Hadamard; the measured
    qubits are the top ancilla and the d_n mid ancillas.  Total CSWAP count is
    (3n/2 - 3 + 1)*w.
    """
    layout = _layout(n, w, top=True, mid=True)
    gates = [hadamard(0), *_un_gates(layout), *_closing_swap_test(layout)]
    return CircuitSpec(layout, tuple(gates))


def pad_inputs(states: Sequence[StateVector], w: int) -> list[StateVector]:
    """Pad an input list with |0...0> registers up to the next power of two >= 4."""
    if len(states) < 2:
        raise ValueError(f"need at least 2 input states, got {len(states)}")
    for s in states:
        if s.num_qubits != w:
            raise ValueError(
                f"all inputs must have width {w}, got a register of "
                f"{s.num_qubits} qubits"
            )
    target = 4
    while target < len(states):
        target *= 2
    padded = list(states)
    padded += [statevec.make_basis_state(w, 0) for _ in range(target - len(states))]
    return padded


@dataclass(frozen=True, eq=False)
class PairMap:
    """Mid-ancilla outcome -> the ordered pair of input labels (1-based) left
    in registers 1 and 2 after U_n, plus per-unordered-pair multiplicities.

    ``pairs`` is a read-only (2^{d_n}, 2) int64 array indexed by outcome
    number (the first mid ancilla is the most significant bit).  Every
    outcome maps to exactly one pair, and every unordered pair is reached by
    at least one outcome; multiplicities are not uniform, which is why
    per-pair probabilities carry a factor multiplicity/2^{d_n+1} rather than
    a single constant.

    In closed form, multiplicity(i, j) = 1 when j - i is odd and
    2^(2*v2(j - i) - 1) otherwise, v2 the 2-adic valuation; they add up to
    (n/2)^3.  By recursion from U_2 (no ancilla, one outcome (1, 2)): the
    last three swaps of U_n turn each U_{h} outcome (a, b), h = n/2, into
    eight, with pairs {a, b}, {a+h, b+h}, {a, b+h}, {a+h, b} once and
    {a, a+h}, {b, b+h} twice; a difference below h keeps its 2-adic
    valuation when h is added, and each label sits in h^2/4 of the U_h
    outcomes, so {a, a+h} gets h^2/2.  The tests check the law for n up
    to 64.
    """

    n: int
    pairs: np.ndarray
    multiplicity: dict[tuple[int, int], int]

    @property
    def d(self) -> int:
        return mid_ancilla_count(self.n)

    def pair_constant(self, i: int, j: int) -> float:
        """multiplicity(i,j) / 2^{d_n+1}: the exact per-pair coefficient in
        P(pair, top=0) = coeff * (1 + |<phi_i|phi_j>|^2)."""
        key = (min(i, j), max(i, j))
        return self.multiplicity[key] / 2.0 ** (self.d + 1)

    def reduce_by_pair(self, values, ufunc=np.add) -> np.ndarray:
        """Fold per-outcome ``values`` into one float per unordered pair with
        ``ufunc`` from 0, in outcome order (a sum adds as a loop would), for
        the pairs in the order of combinations(range(1, n + 1), 2)."""
        lo, hi = np.sort(self.pairs, axis=1).T - 1
        table = np.zeros((self.n, self.n))
        ufunc.at(table, (lo, hi), values)
        return table[np.triu_indices(self.n, 1)]


def derive_pair_map(n: int) -> PairMap:
    """Derive the outcome -> pair map of U_n by tracing registers 1 and 2
    back through the swap schedule.

    Every conditional branch of U_n is a register permutation, so for each
    mid-ancilla outcome the label left in a register is the one that started
    where a backward walk from it ends: through the schedule in reverse, a
    swap active in that outcome moves a walk on one of its registers to the
    other.  Two walks per outcome give exactly what running the circuit on
    computational-basis tags and reading registers 1 and 2 gives (the
    statevector route is cross-checked in the tests at n=4, and the forward
    tracking of all n labels for n up to 64).
    """
    require_power_of_two(n)
    if n > MAX_PAIR_MAP_INPUTS:
        raise ResourceError(
            f"pair map enumeration is capped at n={MAX_PAIR_MAP_INPUTS} "
            f"(2^{mid_ancilla_count(n)} outcomes); got n={n}"
        )
    d = mid_ancilla_count(n)
    outcomes = np.arange(2**d)
    # the register each walk sits on: registers 1 and 2 (0-based) per outcome
    pos = np.zeros((2, 2**d), dtype=np.int64)
    pos[1] = 1
    for anc, ra, rb in reversed(un_register_swaps(n)):
        # bit ``anc`` of each outcome, in mid-ancilla wire order
        on = (outcomes >> (d - 1 - anc)) & 1 == 1
        at_a = on & (pos == ra)
        at_b = on & (pos == rb)
        pos[at_a] = rb
        pos[at_b] = ra
    pairs = np.ascontiguousarray(pos.T + 1)
    pairs.flags.writeable = False
    keys, counts = np.unique(np.sort(pairs, axis=1), axis=0, return_counts=True)
    multiplicity = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
    missing = set(combinations(range(1, n + 1), 2)) - set(multiplicity)
    if missing:
        raise AssertionError(f"pair map does not cover pairs {sorted(missing)}")
    return PairMap(n, pairs, multiplicity)


def state_bytes(circuit: CircuitSpec) -> int:
    """The bytes of the circuit's simulated state, checked by
    ``statevec.check_bytes`` before anything is allocated."""
    layout = circuit.layout
    return statevec.check_bytes(
        16 * 2**layout.total_qubits,
        f"the {layout.total_qubits}-qubit state of a circuit on {layout.n} "
        f"registers of width {layout.w}",
    )


def simulate(
    circuit: CircuitSpec, inputs: Sequence[StateVector], out: np.ndarray | None = None
) -> StateVector:
    """Run the circuit on the given input registers (ancillas start in |0>),
    in a fresh state or in ``out``, which ``statevec.prepare`` checks and
    fills whatever it held before.

    The circuit must open with one Hadamard on each ancilla, as every
    builder here does; a ValueError says so before anything is allocated.
    Those gates are part of the one state that ``statevec.prepare`` builds.
    The later gates write in place into that state, so the inputs are never
    touched: one ``statevec.apply_hadamard`` call per Hadamard, and one
    ``statevec.apply_cswap`` call per maximal stretch of consecutive CSWAPs,
    on the stretch's (control, a, b) ``Gate.qubits`` as they stand, and
    that call cuts the stretch into passes over the state; the gate list
    and its counts stay per qubit.  Each call adds only one block of
    scratch, so the run peaks at that one state plus a few blocks.
    """
    layout = circuit.layout
    if len(inputs) != layout.n:
        raise ValueError(f"circuit expects {layout.n} input registers, got {len(inputs)}")
    for s in inputs:
        if s.num_qubits != layout.w:
            raise ValueError(
                f"circuit expects width-{layout.w} registers, got {s.num_qubits}"
            )
    ancillas = layout.ancilla_count
    opening = circuit.gates[:ancillas]
    if sorted(g.qubits[0] for g in opening if g.kind == "h") != list(range(ancillas)):
        raise ValueError(
            f"the circuit must open with one Hadamard on each of its {ancillas} "
            f"ancillas, got {[(g.kind, *g.qubits) for g in opening]}"
        )
    state_bytes(circuit)
    state = statevec.prepare(ancillas, inputs, out=out)
    for kind, run in groupby(circuit.gates[ancillas:], key=lambda g: g.kind):
        qubits = [g.qubits for g in run]
        if kind == "cswap":
            statevec.apply_cswap(state, qubits)
        else:
            for (q,) in qubits:
                statevec.apply_hadamard(state, q)
    return state


def circuit_to_json(circuit: CircuitSpec) -> dict:
    """JSON-ready dump: {n, w, layout, gates, counts}."""
    layout = circuit.layout
    return {
        "n": layout.n,
        "w": layout.w,
        "layout": {
            "top_ancilla": layout.top_ancilla,
            "mid_ancillas": list(layout.mid_ancillas),
            "inputs": [list(reg) for reg in layout.inputs],
        },
        "gates": [{"type": g.kind, "qubits": list(g.qubits)} for g in circuit.gates],
        "counts": {
            "cswap": circuit.cswap_count,
            "ancilla": layout.ancilla_count,
            "total_qubits": layout.total_qubits,
        },
    }
