import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from swaplab import statevec as sv

from oracles import cswap_reference, hadamard_reference, unopened_state


def random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return sv.StateVector(num_qubits, amps)


def copy_of(state):
    """A state over a copy of ``state``'s amplitudes, for a gate to write."""
    return sv.StateVector(state.num_qubits, state.amplitudes.copy())


def run_reference(state, gates):
    """(control, a, b) CSWAPs one after another, each whole-array."""
    return functools.reduce(lambda s, gate: cswap_reference(s, *gate), gates, state)


class TestMakeBasisState:
    def test_zero(self):
        assert np.array_equal(sv.make_basis_state(1, 0).amplitudes, [1, 0])

    def test_two_qubits_index_three(self):
        assert np.array_equal(sv.make_basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_three_qubits_index_five(self):
        amps = sv.make_basis_state(3, 5).amplitudes
        assert amps[5] == 1.0 and np.count_nonzero(amps) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sv.make_basis_state(2, 4)
        with pytest.raises(ValueError):
            sv.make_basis_state(2, -1)

    def test_qubit0_is_most_significant(self):
        # |10> must put qubit 0 in |1>: index 2 for two qubits
        state = sv.prepare(0, [sv.make_basis_state(1, 1), sv.make_basis_state(1, 0)])
        assert state.amplitudes[2] == 1.0


class TestMakeQubitState:
    def test_north_pole(self):
        assert np.allclose(sv.make_qubit_state(0, 0).amplitudes, [1, 0])

    def test_south_pole(self):
        assert np.allclose(sv.make_qubit_state(math.pi, 0).amplitudes, [0, 1], atol=1e-15)

    def test_equator(self):
        amps = sv.make_qubit_state(math.pi / 2, 0).amplitudes
        assert np.allclose(amps, [1 / math.sqrt(2)] * 2)

    def test_phase(self):
        amps = sv.make_qubit_state(math.pi / 2, math.pi / 2).amplitudes
        assert np.allclose(amps[1], 1j / math.sqrt(2))


class TestTensor:
    def test_basis_product(self):
        state = sv.prepare(0, [sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)])
        assert np.array_equal(state.amplitudes, [0, 1, 0, 0])

    def test_plus_zero(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        state = sv.prepare(0, [plus, sv.make_basis_state(1, 0)])
        s = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [s, 0, s, 0])

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        state = sv.prepare(0, [random_state(rng, 1) for _ in range(3)])
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            sv.prepare(0, [])


class TestHadamard:
    def test_on_zero(self):
        state = sv.apply_hadamard(sv.make_basis_state(1, 0), 0)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_on_one(self):
        state = sv.apply_hadamard(sv.make_basis_state(1, 1), 0)
        s = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [s, -s])

    def test_involution(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        twice = sv.apply_hadamard(sv.apply_hadamard(copy_of(state), 1), 1)
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sv.apply_hadamard(sv.make_basis_state(2, 0), 2)


class TestCswap:
    def test_control_on(self):
        # |1,01> -> |1,10>
        state = sv.make_basis_state(3, 0b101)
        out = sv.apply_cswap(state, [(0, 1, 2)])
        assert out.amplitudes[0b110] == 1.0

    def test_control_off(self):
        out = sv.apply_cswap(sv.make_basis_state(3, 0b001), [(0, 1, 2)])
        assert np.array_equal(out.amplitudes, sv.make_basis_state(3, 0b001).amplitudes)

    def test_superposed_control(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        state = sv.prepare(0, [plus, sv.make_basis_state(2, 0b01)])
        out = sv.apply_cswap(state, [(0, 1, 2)])
        s = 1 / math.sqrt(2)
        expected = np.zeros(8, complex)
        expected[0b001] = s  # control 0 branch untouched
        expected[0b110] = s  # control 1 branch swapped
        assert np.allclose(out.amplitudes, expected)

    def test_involution_bitwise_exact(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 4)
        twice = sv.apply_cswap(sv.apply_cswap(copy_of(state), [(2, 0, 3)]), [(2, 0, 3)])
        assert np.array_equal(twice.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("control,a,b", list(itertools.permutations(range(4), 3)))
    def test_matches_bit_loop_oracle(self, control, a, b):
        # per basis index: where the control bit is 1, the amplitude moves to
        # the index with bits a and b exchanged (qubit 0 is the top bit)
        n = 4
        state = random_state(np.random.default_rng(5), n)
        expected = np.empty_like(state.amplitudes)
        for idx in range(2**n):
            bit = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
            if bit[control]:
                bit[a], bit[b] = bit[b], bit[a]
            target = sum(v << (n - 1 - q) for q, v in enumerate(bit))
            expected[target] = state.amplitudes[idx]
        out = sv.apply_cswap(state, [(control, a, b)])
        assert np.array_equal(out.amplitudes, expected)

    def test_duplicate_indices(self):
        state = sv.make_basis_state(3, 0)
        with pytest.raises(ValueError):
            sv.apply_cswap(state, [(0, 0, 1)])

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sv.apply_cswap(sv.make_basis_state(3, 0), [(0, 1, 3)])

    @pytest.mark.parametrize(
        "gates",
        [
            [(1, 3, 0)],
            [[1, 3, 0]],
            ((1, 3, 0),),
            np.array([[1, 3, 0]]),
            [(np.int64(1), np.int64(3), 0)],
        ],
        ids=["tuple", "list", "tuple-of-tuples", "numpy-rows", "numpy-ints"],
    )
    def test_gate_forms_agree(self, gates):
        state = random_state(np.random.default_rng(29), 5)
        expected = cswap_reference(state, 1, 3, 0).amplitudes.tobytes()
        assert sv.apply_cswap(state, gates).amplitudes.tobytes() == expected

    @pytest.mark.parametrize(
        "gates,problem",
        [
            ([], "apply_cswap needs at least one (control, a, b) gate"),
            ([(0, 1, 3), (0, 2, 2)], "cswap gate (0, 2, 2) needs three distinct"),
            ([(2, 1, 3), (2, 2, 4)], "cswap gate (2, 2, 4) needs three distinct"),
            ([(np.int64(4), 4, 1)], "cswap gate (4, 4, 1) needs three distinct"),
            ([(0, 1, 2), (0, 5, 3)], "cswap gate (0, 5, 3) needs three distinct "
                                     "qubits of 0..4"),
            ([(-1, 1, 2)], "cswap gate (-1, 1, 2) needs three distinct"),
            ([(0, 2, 1), (3, 4)], "cswap gate (3, 4) needs three distinct"),
            ([(0, 1, 2, 3)], "cswap gate (0, 1, 2, 3) needs three distinct"),
        ],
        ids=["empty", "repeated-target", "control-is-target", "numpy-int-named",
             "out-of-range", "negative", "short", "long"],
    )
    def test_bad_gates_named(self, gates, problem):
        # the first bad gate is named before the state is written
        state = random_state(np.random.default_rng(3), 5)
        before = state.amplitudes.tobytes()
        with pytest.raises(ValueError, match=re.escape(problem)):
            sv.apply_cswap(state, gates)
        assert state.amplitudes.tobytes() == before


class TestGateOut:
    """A gate writes its output in place into its state's own array and
    returns that state; the state holds an array the gates can write."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hadamard_every_qubit(self, n):
        state = random_state(np.random.default_rng(n), n)
        for q in range(n):
            TestBlockedKernels._check(sv.apply_hadamard, hadamard_reference, state, q)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cswap_every_ordered_triple(self, n):
        state = random_state(np.random.default_rng(n), n)
        for triple in itertools.permutations(range(n), 3):
            TestBlockedKernels._check(sv.apply_cswap, run_reference, state, [triple])

    def test_state_holds_a_writable_contiguous_array(self):
        # a strided view and a read-only array are copied once, so the gates
        # write the copy and leave the caller's array as it was
        values = random_state(np.random.default_rng(2), 5).amplitudes
        strided = values.copy()[::2]
        read_only = np.frombuffer(values[:16].tobytes(), np.complex128)
        for amps in (strided, read_only):
            before = amps.tobytes()
            state = sv.StateVector(4, amps)
            held = state.amplitudes
            assert not np.shares_memory(held, amps)
            assert held.flags.c_contiguous and held.flags.writeable
            assert held.tobytes() == before
            expected = cswap_reference(hadamard_reference(state, 0), 0, 1, 2)
            sv.apply_cswap(sv.apply_hadamard(state, 0), [(0, 1, 2)])
            assert state.amplitudes is held
            assert held.tobytes() == expected.amplitudes.tobytes()
            assert amps.tobytes() == before
        # an array that already is one is kept, as prepare's state is
        owned = values.copy()
        assert sv.StateVector(5, owned).amplitudes is owned

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(13)
        parts = [random_state(rng, 2), random_state(rng, 1)]
        before = [p.amplitudes.tobytes() for p in parts]
        for ancillas, group in ((0, [parts[0]]), (0, parts), (2, parts)):
            fresh = sv.prepare(ancillas, group)
            assert not any(np.shares_memory(fresh.amplitudes, p.amplitudes) for p in parts)
        state = sv.prepare(0, parts)
        assert sv.apply_hadamard(state, 1) is state
        assert sv.apply_cswap(state, [(1, 0, 2)]) is state
        assert [p.amplitudes.tobytes() for p in parts] == before


class TestBlockedKernels:
    """The blocked kernels match the whole-array oracles bit for bit, at
    block sizes small enough that every block loop runs, and at the real
    one; a gate writes into its state's own buffer and returns the state."""

    @staticmethod
    def _check(gate, reference, state, *qubits):
        """``gate`` on a copy of ``state``, which is left as it was."""
        expected = reference(state, *qubits).amplitudes.tobytes()
        own = copy_of(state)
        buffer = own.amplitudes
        result = gate(own, *qubits)
        assert result is own and result.amplitudes is buffer
        assert buffer.tobytes() == expected, qubits

    @pytest.mark.parametrize("block", [1, 2, 8])
    @pytest.mark.parametrize("n", range(5, 10))
    def test_hadamard_every_qubit(self, monkeypatch, block, n):
        monkeypatch.setattr(sv, "_BLOCK", block)
        state = random_state(np.random.default_rng(n), n)
        for q in range(n):
            self._check(sv.apply_hadamard, hadamard_reference, state, q)

    @pytest.mark.parametrize("block", [1, 2, 8])
    def test_cswap_every_ordered_triple(self, monkeypatch, block):
        monkeypatch.setattr(sv, "_BLOCK", block)
        state = random_state(np.random.default_rng(5), 5)
        for triple in itertools.permutations(range(5), 3):
            self._check(sv.apply_cswap, run_reference, state, [triple])

    @pytest.mark.parametrize("block", [1, 2, 8])
    def test_cswap_sampled_triples(self, monkeypatch, block):
        monkeypatch.setattr(sv, "_BLOCK", block)
        rng = np.random.default_rng(9)
        state = random_state(rng, 9)
        triples = list(itertools.permutations(range(9), 3))
        for i in rng.choice(len(triples), 40, replace=False):
            self._check(sv.apply_cswap, run_reference, state, [triples[i]])

    def test_real_block_17_qubits(self):
        n = 17
        rng = np.random.default_rng(17)
        state = random_state(rng, n)
        for q in range(n):
            self._check(sv.apply_hadamard, hadamard_reference, state, q)

    def test_real_block_cswap_18_qubits(self):
        # a single CSWAP keeps the n - 1 non-control qubits; past a block,
        # _swap_pass fixes a lead qubit and walks a block per setting of it
        n = 18
        assert n - 1 > sv._BLOCK.bit_length() - 1
        rng = np.random.default_rng(18)
        state = random_state(rng, n)
        triples = [(0, 1, 2), (17, 16, 15), (0, 16, 17), (17, 0, 1), (9, 0, 17)]
        triples += [tuple(rng.choice(n, 3, replace=False).tolist()) for _ in range(5)]
        for triple in triples:
            self._check(sv.apply_cswap, run_reference, state, [triple])


def register_layout(roles):
    """(control, a, b, n) read from a string with one role per qubit: c the
    control, a and b the registers' qubits in order, f a free qubit."""
    where = {r: [q for q, x in enumerate(roles) if x == r] for r in "cab"}
    return where["c"][0], where["a"], where["b"], len(roles)


def register_swap(control, a, b):
    """The (control, a[k], b[k]) gates of a controlled register swap."""
    return [(control, x, y) for x, y in zip(a, b)]


# control before, between and after two contiguous registers, and the
# registers interleaved (b in reverse), with free qubits around them
REGISTER_LAYOUTS = {
    "before": lambda w: "ffcf" + "a" * w + "f" + "b" * w + "ff",
    "between": lambda w: "ff" + "a" * w + "fcf" + "b" * w + "f",
    "after": lambda w: "f" + "a" * w + "ff" + "b" * w + "fcf",
    "interleaved": lambda w: "ffcf" + "ab" * w + "ff",
}


class TestRegisterSwap:
    """One call swaps a whole register pair, given as its w gates on one
    control: bit for bit the w CSWAPs one after another, at the real block
    and at 64 amplitudes, where states of 8 to 15 qubits span many blocks
    and four pairs take two passes."""

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("layout", sorted(REGISTER_LAYOUTS))
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_matches_sequential_cswaps(self, monkeypatch, block, layout, w):
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        control, a, b, n = register_layout(REGISTER_LAYOUTS[layout](w))
        if layout == "interleaved":
            b = b[::-1]
        state = random_state(np.random.default_rng(w * n), n)
        TestBlockedKernels._check(sv.apply_cswap, run_reference, state,
                                  register_swap(control, a, b))

    @pytest.mark.parametrize("w", [2, 9])
    def test_real_block_19_qubits(self, w):
        # w = 9 takes two passes of at most 8 pairs; the scratch stays one
        # block, an eighth of the state, which a half-state kernel overruns
        n = 19
        state = random_state(np.random.default_rng(w), n)
        gates = register_swap(0, range(1, 1 + w), range(n - w, n))
        TestBlockedKernels._check(sv.apply_cswap, run_reference, state, gates)
        own = state.amplitudes.copy()
        tracemalloc.start()
        try:
            sv.apply_cswap(sv.StateVector(n, own), gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * sv._BLOCK + 2**14, peak

    def test_involution_bitwise_exact(self):
        state = random_state(np.random.default_rng(23), 9)
        gates = register_swap(4, [0, 2, 7], [8, 1, 3])
        once = sv.apply_cswap(copy_of(state), gates)
        assert once.amplitudes.tobytes() != state.amplitudes.tobytes()
        twice = sv.apply_cswap(once, gates)
        assert twice.amplitudes.tobytes() == state.amplitudes.tobytes()

    @pytest.mark.parametrize(
        "a,b", [((1, 2), (2, 3)), ((1, 1), (2, 3))], ids=["shared", "repeated"]
    )
    def test_overlapping_registers_are_sequential_gates(self, a, b):
        # registers that share a qubit are no register swap, but their gates
        # are well defined one after another
        state = random_state(np.random.default_rng(37), 5)
        gates = register_swap(0, a, b)
        expected = run_reference(state, gates).amplitudes.tobytes()
        assert sv.apply_cswap(state, gates).amplitudes.tobytes() == expected

    @pytest.mark.parametrize(
        "control,a,b,problem",
        [
            pytest.param(0, (), (), "needs at least one (control, a, b) gate",
                         id="0-a1-b1-nonempty"),
            pytest.param(0, (1, 5), (2, 3), "cswap gate (0, 5, 3) needs three "
                         "distinct qubits of 0..4",
                         id="0-a5-b5-qubit index 5 out of range"),
        ],
    )
    def test_bad_registers_named(self, control, a, b, problem):
        # an empty register pair is no gate; a register qubit out of range is
        # named by its gate
        state = sv.make_basis_state(5, 3)
        with pytest.raises(ValueError, match=re.escape(problem)):
            sv.apply_cswap(state, register_swap(control, a, b))


def random_run(rng, n, controls):
    """The (control, a, b) gates of a run on ``n`` qubits with ``controls``
    distinct controls, each used at least once, and targets drawn from
    every other qubit, so that gates share targets."""
    ctrl = rng.choice(n, controls, replace=False).tolist()
    others = [q for q in range(n) if q not in ctrl]
    length = int(rng.integers(controls, 3 * controls + 6))
    gate_controls = ctrl + rng.choice(ctrl, length - controls).tolist()
    pairs = [rng.choice(others, 2, replace=False).tolist() for _ in gate_controls]
    return [(c, x, y) for c, (x, y) in zip(gate_controls, pairs)]


class TestCswapRun:
    """One call applies a run of CSWAPs in order: bit for bit the per-gate
    chain, at the real block and at 64 amplitudes, where a run's targets
    take several passes and its control settings split the state into many
    blocks, also where a qubit is a control in one gate and a target in
    another."""

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("case", range(12))
    def test_matches_per_gate_chain(self, monkeypatch, block, case):
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        n, controls = 6 + case, 1 + case % 4
        rng = np.random.default_rng(100 + case)
        state = random_state(rng, n)
        gates = random_run(rng, n, controls)
        TestBlockedKernels._check(sv.apply_cswap, run_reference, state, gates)

    def test_run_then_reverse_restores(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, 10)
        gates = random_run(rng, 10, 3)
        once = sv.apply_cswap(copy_of(state), gates)
        assert once.amplitudes.tobytes() != state.amplitudes.tobytes()
        back = sv.apply_cswap(once, gates[::-1])
        assert back.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_real_block_two_passes_in_one_block(self):
        # 17 targets over two controls at 19 qubits: two passes, and the
        # scratch stays one block, an eighth of the state
        n = 19
        rng = np.random.default_rng(41)
        state = random_state(rng, n)
        targets = [q for q in range(n) if q not in (0, 9)]
        a = targets[:9] + targets[1:9]
        b = targets[8:] + targets[:8]
        gates = list(zip([0, 9] * 8 + [9], a, b))
        assert len(set(a + b)) == 17
        TestBlockedKernels._check(sv.apply_cswap, run_reference, state, gates)
        own = state.amplitudes.copy()
        tracemalloc.start()
        try:
            sv.apply_cswap(sv.StateVector(n, own), gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * sv._BLOCK + 2**14, peak

    @pytest.mark.parametrize(
        "controls,a,b",
        [
            ((0, 1), (1, 2), (3, 4)),
            ((0, 2), (1, 0), (3, 4)),
            ((0, 1), (2, 3), (3, 0)),
        ],
    )
    def test_control_of_one_gate_target_of_another(self, monkeypatch, controls, a, b):
        # the second gate's control is a target of the first, or one of its
        # targets is the first's control: two passes of one gate each
        widths = []
        swap_pass = sv._swap_pass

        def spied(cube, gates):
            widths.append(len(gates))
            return swap_pass(cube, gates)

        monkeypatch.setattr(sv, "_swap_pass", spied)
        state = random_state(np.random.default_rng(sum(a)), 5)
        gates = list(zip(controls, a, b))
        expected = run_reference(state, gates).amplitudes.tobytes()
        assert sv.apply_cswap(state, gates).amplitudes.tobytes() == expected
        assert widths == [1, 1]

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("case", range(8))
    def test_controls_and_targets_mixed(self, monkeypatch, block, case):
        # every gate draws its three qubits from all of them, so qubits are
        # controls in some gates and targets in others
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        n = 5 + case
        rng = np.random.default_rng(200 + case)
        state = random_state(rng, n)
        gates = [rng.choice(n, 3, replace=False).tolist()
                 for _ in range(int(rng.integers(4, 16)))]
        assert {c for c, _, _ in gates} & {q for _, x, y in gates for q in (x, y)}
        TestBlockedKernels._check(sv.apply_cswap, run_reference, state, gates)

    @pytest.mark.parametrize(
        "controls,a,b,problem",
        [
            pytest.param((), (), (), "needs at least one (control, a, b) gate",
                         id="controls1-a1-b1-nonempty"),
            pytest.param((0, 5), (2, 3), (1, 4), "cswap gate (5, 3, 4) needs "
                         "three distinct qubits of 0..4",
                         id="controls5-a5-b5-qubit index 5 out of range"),
        ],
    )
    def test_bad_runs_named(self, controls, a, b, problem):
        # an empty run is no gate; a control out of range is named by its gate
        state = sv.make_basis_state(5, 3)
        with pytest.raises(ValueError, match=re.escape(problem)):
            sv.apply_cswap(state, list(zip(controls, a, b)))


class TestPrepare:
    # real registers with negative amplitudes: their product has -0.0 parts
    INPUTS = [
        sv.StateVector(1, np.array([-0.6, -0.8])),
        sv.StateVector(2, np.array([-0.5, 0.5, -0.5, -0.5])),
    ]

    def test_inputs_fill_the_first_block(self):
        product = np.kron(self.INPUTS[0].amplitudes, self.INPUTS[1].amplitudes)
        assert sv.prepare(0, self.INPUTS).amplitudes.tobytes() == product.tobytes()
        state = sv.prepare(2, self.INPUTS)
        assert state.num_qubits == 5
        # the opening Hadamards spread the product over all four blocks
        assert np.allclose(state.amplitudes.reshape(4, 8), product / 2, rtol=0, atol=1e-16)

    def test_opening_hadamards_match_the_kernel(self):
        state = sv.prepare(3, self.INPUTS)
        ref = unopened_state(3, self.INPUTS)
        for q in (2, 0, 1):
            ref = sv.apply_hadamard(ref, q)
        assert state.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def test_every_ancilla_opened_matches_the_kernel(self):
        # a register whose product keeps a -0.0 real part through x c: only
        # the block on every Hadamard's |1> branch, never added to +0, keeps it
        inputs = [sv.StateVector(1, np.array([complex(-0.0, 0.6), -0.8])),
                  self.INPUTS[1]]
        state = sv.prepare(3, inputs)
        ref = unopened_state(3, inputs)
        for q in (0, 1, 2):
            ref = sv.apply_hadamard(ref, q)
        assert state.amplitudes.tobytes() == ref.amplitudes.tobytes()
        parts = state.amplitudes.view(np.float64).reshape(8, 16)
        negative_zero = (np.signbit(parts) & (parts == 0.0)).any(axis=1)
        assert negative_zero.tolist() == [False] * 7 + [True]

    def test_needs_an_input(self):
        with pytest.raises(ValueError):
            sv.prepare(2, [])


class TestExactMarginal:
    def test_basis_state(self):
        state = sv.make_basis_state(2, 0b01)
        table = sv.exact_marginal(state, 1)
        assert table.dtype == np.float64 and table.tolist() == [1.0, 0.0]

    def test_bell_marginal(self):
        bell = sv.StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        table = sv.exact_marginal(bell, 1)
        assert abs(table[0] - 0.5) < 1e-12 and abs(table[1] - 0.5) < 1e-12

    def test_orthogonal_swap_test_ancilla(self):
        # built by hand: H, CSWAP, H on |0>|0>|1>
        state = sv.prepare(
            0,
            [sv.make_basis_state(1, 0), sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)],
        )
        state = sv.apply_hadamard(state, 0)
        state = sv.apply_cswap(state, [(0, 1, 2)])
        state = sv.apply_hadamard(state, 0)
        table = sv.exact_marginal(state, 1)
        assert abs(table[0] - 0.5) < 1e-12
        assert abs(table[1] - 0.5) < 1e-12

    def test_full_marginal_matches_probabilities(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 3)
        table = sv.exact_marginal(state, 3)
        probs = np.abs(state.amplitudes) ** 2
        for idx in range(8):
            assert abs(table[idx] - probs[idx]) < 1e-12

    def test_table_sums_to_one(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 4)
        table = sv.exact_marginal(state, 2)
        assert abs(sum(table.tolist()) - 1.0) < 1e-10

    def test_invalid_indices(self):
        state = sv.make_basis_state(2, 0)
        with pytest.raises(ValueError, match="leading -1 of 2 qubits"):
            sv.exact_marginal(state, -1)
        with pytest.raises(ValueError, match="leading 3 of 2 qubits"):
            sv.exact_marginal(state, 3)


class TestSampleOutcomes:
    def test_deterministic_distribution(self):
        zero = sv.make_basis_state(1, 0)
        counts = sv.sample_outcomes(zero, 1, 1000, np.random.default_rng(42))
        assert counts.dtype == np.int64 and counts.tolist() == [1000, 0]

    def test_uniform_frequency_within_4_sigma(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        shots = 10**5
        counts = sv.sample_outcomes(plus, 1, shots, np.random.default_rng(7))
        freq = counts[0] / shots
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / shots)

    def test_same_seed_identical(self):
        rng_state = sv.make_qubit_state(1.0, 0.5)
        a = sv.sample_outcomes(rng_state, 1, 500, np.random.default_rng(99))
        b = sv.sample_outcomes(rng_state, 1, 500, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3)
        counts = sv.sample_outcomes(state, 2, 1234, np.random.default_rng(5))
        assert counts.sum() == 1234

    def test_zero_shots(self):
        with pytest.raises(ValueError, match="shots must be"):
            sv.sample_outcomes(
                sv.make_basis_state(1, 0), 1, 0, np.random.default_rng(1)
            )

    @pytest.mark.parametrize("shots", [2.5, math.nan, -math.inf, math.inf])
    def test_shots_must_be_finite_whole_and_positive(self, shots):
        with pytest.raises(ValueError, match="shots must be"):
            sv.sample_outcomes(
                sv.make_basis_state(1, 0), 1, shots, np.random.default_rng(1)
            )

    def test_whole_float_shots(self):
        zero = sv.make_basis_state(1, 0)
        counts = sv.sample_outcomes(zero, 1, 3.0, np.random.default_rng(1))
        assert counts.tolist() == [3, 0]


class TestInnerProduct:
    def test_orthonormal_basis(self):
        zero = sv.make_basis_state(1, 0)
        one = sv.make_basis_state(1, 1)
        assert sv.inner_product(zero, zero) == 1.0
        assert sv.inner_product(zero, one) == 0.0

    def test_zero_plus(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        zero = sv.make_basis_state(1, 0)
        assert abs(sv.inner_product(zero, plus) - 1 / math.sqrt(2)) < 1e-15

    def test_conjugate_linear_in_first(self):
        rng = np.random.default_rng(31)
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert sv.inner_product(a, b) == pytest.approx(
            np.conj(sv.inner_product(b, a))
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sv.inner_product(sv.make_basis_state(1, 0), sv.make_basis_state(2, 0))


class TestInvariants:
    def test_unitarity_random_gate_sequences(self):
        rng = np.random.default_rng(2024)
        a = random_state(rng, 4)
        b = random_state(rng, 4)
        before = sv.inner_product(a, b)
        for _ in range(40):
            if rng.random() < 0.5:
                q = int(rng.integers(4))
                a, b = sv.apply_hadamard(a, q), sv.apply_hadamard(b, q)
            else:
                gates = [rng.permutation(4)[:3]]
                a, b = sv.apply_cswap(a, gates), sv.apply_cswap(b, gates)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-10
        assert abs(np.linalg.norm(b.amplitudes) - 1.0) < 1e-10
        assert abs(sv.inner_product(a, b) - before) < 1e-10

    def test_sampling_consistency(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 2)
        shots = 20000
        counts = sv.sample_outcomes(state, 2, shots, np.random.default_rng(12))
        table = sv.exact_marginal(state, 2)
        for outcome, q in enumerate(table.tolist()):
            bound = 5 * math.sqrt(q * (1 - q) / shots) + 1e-9
            assert abs(counts[outcome] / shots - q) <= bound

    def test_resource_ceiling(self):
        with pytest.raises(sv.ResourceError):
            sv.make_basis_state(sv.MAX_QUBITS + 1, 0)

    def test_ceiling_is_in_bytes(self):
        assert sv.check_state_bytes(sv.MAX_QUBITS) == sv.MAX_STATE_BYTES == 2**32
        with pytest.raises(sv.ResourceError, match="needs 8589934592 bytes"):
            sv.check_state_bytes(sv.MAX_QUBITS + 1)
        with pytest.raises(sv.ResourceError, match="4294967296 bytes"):
            sv.prepare(sv.MAX_QUBITS, [sv.make_basis_state(1, 0)])

    def test_amplitude_length_validation(self):
        with pytest.raises(ValueError):
            sv.StateVector(2, np.array([1.0, 0.0]))
