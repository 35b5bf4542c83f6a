"""Dense state-vector simulation of a multi-qubit register.

Only the two gate types needed by the swap-test circuits are provided
(Hadamard, and controlled-SWAP as a sequence of (control, a, b) gates
applied in order in one call), plus basis/Bloch state preparation, exact
marginal extraction and seeded shot sampling.

Qubit ordering convention (fixed everywhere in this package): qubit 0 is
the MOST significant bit of the basis-state index.  For a 2-qubit register,
index 2 = binary ``10`` is the state |1>|0> with qubit 0 in |1>.

``prepare`` builds a circuit's one state in a single allocation, or in a
caller's buffer: the ancillas in |0...0>, the inputs' product, and an
opening Hadamard on every ancilla, in one write of each block but two.
Each gate is one kernel that writes its result in place into the state's
own amplitudes and returns that state.  ``circuits.simulate`` makes one
``apply_cswap`` call per stretch of consecutive controlled swaps;
``apply_cswap`` alone cuts a stretch into passes, so each amplitude a pass
permutes is moved once per pass, not once per gate.  A gate walks the state
in blocks of at most ``_BLOCK`` amplitudes through one block of scratch,
and ``exact_marginal`` folds it a block at a time, so a
simulate-and-measure run holds one state plus a few blocks.  The measured
qubits are always the leading ones (the ancillas lead).  Sampling takes an
explicit Generator; there is no hidden global RNG state.  ``check_bytes``
is the one byte-ceiling check, for states and for the package's other
large tables alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# Refuse to allocate a state above this size: 2^28 complex amplitudes, 4 GiB.
# Keeps "desk scale" honest.
MAX_QUBITS = 28
MAX_STATE_BYTES = 16 * 2**MAX_QUBITS

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Largest number of amplitudes a gate touches per step, and the size of its
# one scratch block: 2^16 complex amplitudes (1 MiB) stay in a 2 MiB L2
# cache while a whole state streams through it, and a swap pass keeps up to
# 16 target qubits in one block.  apply_hadamard, which streams three arrays
# of its step's size, steps a quarter block at a time.
_BLOCK = 2**16


class ResourceError(RuntimeError):
    """Raised when a requested state or enumeration exceeds its ceiling."""


def check_bytes(nbytes: int, what: str) -> int:
    """``nbytes``, checked against MAX_STATE_BYTES (read at call time) before
    anything is allocated: over it, a ResourceError reads "{what} needs
    {nbytes} bytes, over the ceiling of {MAX_STATE_BYTES} bytes"."""
    if nbytes > MAX_STATE_BYTES:
        raise ResourceError(
            f"{what} needs {nbytes} bytes, over the ceiling of {MAX_STATE_BYTES} bytes"
        )
    return nbytes


def check_state_bytes(num_qubits: int) -> int:
    """The bytes a state of ``num_qubits`` qubits holds, 16 per amplitude,
    checked by ``check_bytes``."""
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    return check_bytes(16 * 2**num_qubits, f"a {num_qubits}-qubit state")


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``num_qubits`` qubits as 2^n complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_state_bytes(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits} qubits"
            )


def make_basis_state(num_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on ``num_qubits`` qubits."""
    check_state_bytes(num_qubits)
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


def prepare(
    ancillas: int, inputs: Sequence[StateVector], out: np.ndarray | None = None
) -> StateVector:
    """``ancillas`` qubits in |0...0> followed by the input registers, then a
    Hadamard on every ancilla, in one fresh state, or in ``out`` (a
    writable, C-contiguous complex128 array of 2^n entries) with the same
    bits whatever it held before.

    The state's bytes are checked before its one allocation, and every
    block of it but two is then written once.  The ancillas lead,
    so the state is one block of 2^(n - ancillas) amplitudes per setting of
    them, and the inputs' Kronecker product x is written into the first:
    np.kron's chain from 1 over all inputs but the last, then its outer
    product with the last straight into the state, in rows of at most
    ``_BLOCK`` amplitudes, so only the product of the others and a block
    are built beside it, with the bits of the whole chain.

    A Hadamard on an ancilla still in |0> meets zero partners: in
    ``apply_hadamard``'s order a1' = (a0 - 0)c and a0' = (a0 + 0)c.  After
    the k = ``ancillas`` opening Hadamards a block thus holds one of two bit
    patterns, the bits that kernel gives:
    - x c ... c (k factors) on the last block, the one that took every
      Hadamard's |1> branch, computed in place there; it keeps some of x's
      -0.0 parts;
    - ((x + 0) c) ... c on every other block, where + 0 has turned every
      -0.0 part to +0.0 for good; it is computed in the first block and
      copied to each block between.
    """
    if not inputs:
        raise ValueError("need at least one input register")
    total = ancillas + sum(s.num_qubits for s in inputs)
    check_state_bytes(total)
    if out is None:
        amps = np.empty(2**total, dtype=np.complex128)
    else:
        _check_buffer(out, total, "out")
        amps = out
    prefix = np.ones(1, dtype=np.complex128)
    for s in inputs[:-1]:
        prefix = np.kron(prefix, s.amplitudes)
    last = inputs[-1].amplitudes
    size = prefix.size * last.size
    product = amps[:size].reshape(prefix.size, last.size)
    # numpy buffers a broadcast product, up to two operands of 8192 entries;
    # rows of at most _BLOCK amplitudes keep that within the block
    rows = max(1, _BLOCK // last.size)
    for r in range(0, prefix.size, rows):
        np.multiply.outer(prefix[r : r + rows], last, out=product[r : r + rows])
    if ancillas:
        blocks = amps.reshape(2**ancillas, size)  # one block per ancilla setting
        first, raw = blocks[0], blocks[-1]
        np.multiply(first, _INV_SQRT2, out=raw)
        for _ in range(ancillas - 1):
            raw *= _INV_SQRT2
        first += 0j
        for _ in range(ancillas):
            first *= _INV_SQRT2
        for block in blocks[1:-1]:
            np.copyto(block, first)
    return StateVector(total, amps)


def _check_buffer(amps: np.ndarray, num_qubits: int, what: str) -> None:
    """Check that ``amps`` can hold a state of ``num_qubits`` qubits written
    in place: a writable, C-contiguous complex128 array of 2^n entries.  A
    ValueError names ``what`` was checked."""
    size = 2**num_qubits
    if not isinstance(amps, np.ndarray) or amps.dtype != np.complex128:
        got = getattr(amps, "dtype", type(amps).__name__)
        raise ValueError(f"{what} must be a complex128 array, got dtype {got}")
    if amps.shape != (size,):
        raise ValueError(
            f"{what} must be of length {size} for {num_qubits} qubits, "
            f"got shape {amps.shape}"
        )
    if not amps.flags.c_contiguous:
        raise ValueError(f"{what} must be C-contiguous")
    if not amps.flags.writeable:
        raise ValueError(f"{what} must be writable, got a read-only array")


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """Hadamard on one qubit, written in place into the state's amplitudes;
    returns ``state``.  Scratch: one step of at most ``_BLOCK // 4``
    amplitudes.

    The state is viewed as (2^qubit, 2, 2^(n-1-qubit)) and walked in steps
    of at most ``_BLOCK // 4`` amplitudes of the inner axis, several outer
    rows at once where the inner run is shorter than a step, so that a
    step's two halves and its scratch stay in cache together; each step
    gets the same four elementwise operations, so the bits do not depend
    on the step size.
    """
    state._check_qubit(qubit)
    n, amps = state.num_qubits, state.amplitudes
    _check_buffer(amps, n, "the state a Hadamard writes")
    inner = 2 ** (n - 1 - qubit)
    halves = amps.reshape(2**qubit, 2, inner)
    step = max(1, _BLOCK // 4)
    rows, cols = max(1, step // inner), min(inner, step)
    scratch = np.empty(min(step, 2 ** (n - 1)), dtype=np.complex128)
    for r in range(0, 2**qubit, rows):
        for c in range(0, inner, cols):
            a0 = halves[r : r + rows, 0, c : c + cols]
            a1 = halves[r : r + rows, 1, c : c + cols]
            diff = np.subtract(a0, a1, out=scratch[: a0.size].reshape(a0.shape))
            a0 += a1
            a0 *= _INV_SQRT2
            np.multiply(diff, _INV_SQRT2, out=a1)
    return state


def apply_cswap(state: StateVector, gates: Sequence[Sequence[int]]) -> StateVector:
    """Controlled swaps, applied in order and written in place into the
    state's amplitudes; returns ``state``.

    ``gates`` is a non-empty sequence of (control, a, b) triples: where
    qubit ``control`` is |1>, exchange qubits ``a`` and ``b``.  A width-w
    controlled register swap is its w triples on one control, and a qubit
    may be a target of one gate and the control of another.  Each gate
    needs three distinct qubits of the state; a ValueError names the first
    gate that has not, before anything is written.

    A pure basis-index permutation, hence exactly unitary (amplitudes are
    moved, never recombined); a register swap is exactly its own inverse.
    This is the one place that cuts gates into passes over the state.  The
    gates are taken in order, and the next gate (c, x, y) starts a new pass
    when
    - c is a target of the pass, or x or y is one of its controls, so the
      control bits stay fixed through a pass;
    - the pass's targets would exceed log2(_BLOCK), so they fit one block;
    - the pass's distinct controls would exceed max(1, n - log2(_BLOCK)), so
      each setting of them selects at least a block of the state.
    A pass takes at least one gate, and ``_BLOCK`` is read at call time.
    For each setting of its controls a pass is one permutation of the
    target axes, composed once; the all-zero setting is the identity and is
    skipped.  For each other setting the cube of the remaining qubits has
    its leading non-target qubits fixed in turn until a block holds at most
    ``_BLOCK`` amplitudes; each block is copied into one block of scratch
    and written back through the permutation, so a pass moves each
    amplitude it permutes once.
    """
    n = state.num_qubits
    gates = [tuple(map(operator.index, gate)) for gate in gates]
    if not gates:
        raise ValueError("apply_cswap needs at least one (control, a, b) gate")
    for gate in gates:
        if len(gate) != 3 or len(set(gate)) != 3 or not all(0 <= q < n for q in gate):
            raise ValueError(
                f"cswap gate {gate} needs three distinct qubits of 0..{n - 1}"
            )
    _check_buffer(state.amplitudes, n, "the state a cswap writes")
    cube = state.amplitudes.reshape((2,) * n)
    width = _BLOCK.bit_length() - 1
    most_controls = max(1, n - width)
    start, fixed, targets = 0, set(), set()  # the pass's controls and targets
    for k, (c, x, y) in enumerate(gates):
        if k > start and (
            c in targets
            or not fixed.isdisjoint((x, y))
            or len(targets | {x, y}) > width
            or len(fixed | {c}) > most_controls
        ):
            _swap_pass(cube, gates[start:k])
            start, fixed, targets = k, set(), set()
        fixed.add(c)
        targets |= {x, y}
    _swap_pass(cube, gates[start:])
    return state


def _swap_pass(cube: np.ndarray, gates: list[tuple[int, int, int]]) -> None:
    """Apply the (control, a, b) gates in order to ``cube``, the state with
    one axis per qubit, one block at a time through one block of scratch,
    freed on return."""
    controls = sorted({c for c, _, _ in gates})
    targets = {q for _, x, y in gates for q in (x, y)}
    axes = [q for q in range(cube.ndim) if q not in controls]
    # fix the fewest leading free qubits that leave 2^len(kept) <= _BLOCK
    free = [q for q in axes if q not in targets]
    lead = free[: max(0, len(axes) + 1 - _BLOCK.bit_length())]
    kept = [q for q in axes if q not in lead]
    # each gate as its control's place in a setting and its pair's in a block
    steps = [(controls.index(c), kept.index(x), kept.index(y)) for c, x, y in gates]
    view = cube.transpose(controls + lead + kept)
    held = np.empty((2,) * len(kept), dtype=np.complex128)
    for setting in itertools.product((0, 1), repeat=len(controls)):
        if not any(setting):
            continue  # no gate acts: the identity
        source = list(range(len(kept)))  # block axis k takes held axis source[k]
        for c, x, y in steps:
            if setting[c]:
                source[x], source[y] = source[y], source[x]
        moved = held.transpose(source)
        for lead_bits in itertools.product((0, 1), repeat=len(lead)):
            blk = view[setting + lead_bits]
            np.copyto(held, blk)
            blk[...] = moved


def exact_marginal(state: StateVector, k: int) -> np.ndarray:
    """Exact outcome probabilities of measuring the leading ``k`` qubits.

    Returns a float64 array of the 2^k probabilities indexed by outcome
    number, qubit 0 as the most significant bit.  They sum |amplitude|^2
    over the other qubits and add up to 1 within 1e-10.

    The state is read a block of at most ``_BLOCK`` amplitudes at a time.
    Each run of 2^(n - k) amplitudes that share an outcome is summed
    pairwise; a run longer than a block is summed in blocks whose sums add
    as a binary tree, which is how numpy's pairwise sum splits a whole run
    (for blocks of at least its 128-element base case), so the bits do not
    depend on the block size.  Beside the state this holds one block and
    one float per piece summed, the larger of 2^k and 2^n / ``_BLOCK``.
    """
    n = state.num_qubits
    if not 0 <= k <= n:
        raise ValueError(f"cannot measure the leading {k} of {n} qubits")
    chunk = min(2 ** (n - k), _BLOCK)
    chunks = state.amplitudes.reshape(-1, chunk)
    rows = _BLOCK // chunk
    sums = np.empty(len(chunks))
    for r in range(0, len(chunks), rows):
        block = np.abs(chunks[r : r + rows])
        np.square(block, out=block).sum(axis=1, out=sums[r : r + rows])
    sums = sums.reshape(2**k, -1)
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    return sums.reshape(-1)


# Largest finite shot budget: counts up to 2^53 are exact in float64, where
# the estimators read them.
MAX_SHOTS = 2**53


def check_shots(shots):
    """A shot budget: a whole number from 1 to MAX_SHOTS, returned as an
    int, or +inf for exact (infinite-shot) mode, returned as math.inf."""
    if shots == math.inf:
        return math.inf
    if not (shots >= 1 and shots == math.floor(shots)):  # NaN fails both
        raise ValueError(f"shots must be a whole number >= 1 or inf, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most 2^53 = {MAX_SHOTS}, got {shots}")
    return int(shots)


def sample_outcomes(
    state: StateVector, k: int, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` i.i.d. measurement samples of the leading ``k`` qubits.

    Returns int64 counts indexed by outcome number, as exact_marginal.
    Implemented as one multinomial draw from ``rng`` over the exact marginal,
    which is statistically identical to repeated single-shot collapse for
    circuits measured once per run, and keeps 10^7-shot experiments cheap.
    Counts sum to ``shots``, which must be a finite whole number >= 1.
    """
    shots = check_shots(shots)
    if shots == math.inf:
        raise ValueError(f"shots must be finite to sample, got {shots}")
    pvals = np.clip(exact_marginal(state, k), 0.0, None)
    pvals /= pvals.sum()
    return rng.multinomial(shots, pvals)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"inner product needs equal register sizes, got "
            f"{a.num_qubits} and {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
