import itertools
import math

import numpy as np
import pytest

from swaplab import statevec as sv


def random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return sv.StateVector(num_qubits, amps)


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
        state = sv.tensor([sv.make_basis_state(1, 1), sv.make_basis_state(1, 0)])
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
        state = sv.tensor([sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)])
        assert np.array_equal(state.amplitudes, [0, 1, 0, 0])

    def test_plus_zero(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        state = sv.tensor([plus, sv.make_basis_state(1, 0)])
        s = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [s, 0, s, 0])

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        state = sv.tensor([random_state(rng, 1) for _ in range(3)])
        assert abs(state.norm() - 1.0) < 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            sv.tensor([])


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
        twice = sv.apply_hadamard(sv.apply_hadamard(state, 1), 1)
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sv.apply_hadamard(sv.make_basis_state(2, 0), 2)


class TestCswap:
    def test_control_on(self):
        # |1,01> -> |1,10>
        state = sv.make_basis_state(3, 0b101)
        out = sv.apply_cswap(state, 0, 1, 2)
        assert out.amplitudes[0b110] == 1.0

    def test_control_off(self):
        state = sv.make_basis_state(3, 0b001)
        out = sv.apply_cswap(state, 0, 1, 2)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_superposed_control(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        state = sv.tensor([plus, sv.make_basis_state(2, 0b01)])
        out = sv.apply_cswap(state, 0, 1, 2)
        s = 1 / math.sqrt(2)
        expected = np.zeros(8, complex)
        expected[0b001] = s  # control 0 branch untouched
        expected[0b110] = s  # control 1 branch swapped
        assert np.allclose(out.amplitudes, expected)

    def test_involution_bitwise_exact(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 4)
        twice = sv.apply_cswap(sv.apply_cswap(state, 2, 0, 3), 2, 0, 3)
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
        out = sv.apply_cswap(state, control, a, b)
        assert np.array_equal(out.amplitudes, expected)

    def test_duplicate_indices(self):
        state = sv.make_basis_state(3, 0)
        with pytest.raises(ValueError):
            sv.apply_cswap(state, 0, 0, 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sv.apply_cswap(sv.make_basis_state(3, 0), 0, 1, 3)


class TestGateOut:
    """``out=`` gives the same bits as the functional call, whether it is a
    distinct buffer or the input's own."""

    @staticmethod
    def _check_out(gate, state, *qubits):
        expected = gate(state, *qubits).amplitudes
        distinct = np.full_like(state.amplitudes, np.nan)
        result = gate(state, *qubits, out=distinct)
        assert result.amplitudes is distinct and np.array_equal(distinct, expected)
        own = sv.StateVector(state.num_qubits, state.amplitudes.copy())
        result = gate(own, *qubits, out=own.amplitudes)
        assert result.amplitudes is own.amplitudes
        assert np.array_equal(own.amplitudes, expected), qubits

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hadamard_every_qubit(self, n):
        state = random_state(np.random.default_rng(n), n)
        for q in range(n):
            self._check_out(sv.apply_hadamard, state, q)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cswap_every_ordered_triple(self, n):
        state = random_state(np.random.default_rng(n), n)
        for triple in itertools.permutations(range(n), 3):
            self._check_out(sv.apply_cswap, state, *triple)

    @pytest.mark.parametrize(
        "out,problem",
        [
            (np.zeros(8, np.complex128), "length 16"),
            (np.zeros((4, 4), np.complex128), "length 16"),
            (np.zeros(16, np.complex64), "complex128"),
            ([0j] * 16, "complex128"),
            (np.zeros(32, np.complex128)[::2], "C-contiguous"),
            (np.frombuffer(bytes(16 * 16), np.complex128), "writable"),
        ],
    )
    def test_bad_out_rejected(self, out, problem):
        state = sv.make_basis_state(4, 3)
        with pytest.raises(ValueError, match=problem):
            sv.apply_hadamard(state, 0, out=out)
        with pytest.raises(ValueError, match=problem):
            sv.apply_cswap(state, 0, 1, 2, out=out)
        assert state.amplitudes[3] == 1.0

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(13)
        parts = [random_state(rng, 2), random_state(rng, 1)]
        before = [p.amplitudes.tobytes() for p in parts]
        for group in ([parts[0]], parts):
            fresh = sv.tensor(group)
            assert not any(np.shares_memory(fresh.amplitudes, p.amplitudes) for p in parts)
        state = sv.tensor(parts)
        snapshot = state.amplitudes.tobytes()
        for out in (None, np.empty_like(state.amplitudes)):
            sv.apply_hadamard(state, 1, out=out)
            sv.apply_cswap(state, 1, 0, 2, out=out)
        assert state.amplitudes.tobytes() == snapshot
        assert [p.amplitudes.tobytes() for p in parts] == before


class TestExactMarginal:
    def test_basis_state(self):
        state = sv.make_basis_state(2, 0b01)
        table = sv.exact_marginal(state, [0])
        assert table.dtype == np.float64 and table.tolist() == [1.0, 0.0]

    def test_bell_marginal(self):
        bell = sv.StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        table = sv.exact_marginal(bell, [0])
        assert abs(table[0] - 0.5) < 1e-12 and abs(table[1] - 0.5) < 1e-12

    def test_orthogonal_swap_test_ancilla(self):
        # built by hand: H, CSWAP, H on |0>|0>|1>
        state = sv.tensor(
            [sv.make_basis_state(1, 0), sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)]
        )
        state = sv.apply_hadamard(state, 0)
        state = sv.apply_cswap(state, 0, 1, 2)
        state = sv.apply_hadamard(state, 0)
        table = sv.exact_marginal(state, [0])
        assert abs(table[0] - 0.5) < 1e-12
        assert abs(table[1] - 0.5) < 1e-12

    def test_probabilities_are_squared_magnitudes(self):
        state = random_state(np.random.default_rng(29), 5)
        assert np.array_equal(state.probabilities(), np.abs(state.amplitudes) ** 2)

    def test_full_marginal_matches_probabilities(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 3)
        table = sv.exact_marginal(state, [0, 1, 2])
        probs = state.probabilities()
        for idx in range(8):
            assert abs(table[idx] - probs[idx]) < 1e-12

    def test_requested_order(self):
        state = sv.make_basis_state(2, 0b01)  # qubit 0 = 0, qubit 1 = 1
        table = sv.exact_marginal(state, [1, 0])
        assert table[0b10] == 1.0

    def test_table_sums_to_one(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 4)
        table = sv.exact_marginal(state, [1, 3])
        assert abs(sum(table.tolist()) - 1.0) < 1e-10

    def test_invalid_indices(self):
        state = sv.make_basis_state(2, 0)
        with pytest.raises(ValueError):
            sv.exact_marginal(state, [0, 0])
        with pytest.raises(ValueError):
            sv.exact_marginal(state, [2])


class TestSampleOutcomes:
    def test_deterministic_distribution(self):
        counts = sv.sample_outcomes(sv.make_basis_state(1, 0), [0], 1000, 42)
        assert counts.dtype == np.int64 and counts.tolist() == [1000, 0]

    def test_uniform_frequency_within_4_sigma(self):
        plus = sv.make_qubit_state(math.pi / 2, 0)
        shots = 10**5
        counts = sv.sample_outcomes(plus, [0], shots, 7)
        freq = counts[0] / shots
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / shots)

    def test_same_seed_identical(self):
        rng_state = sv.make_qubit_state(1.0, 0.5)
        a = sv.sample_outcomes(rng_state, [0], 500, 99)
        b = sv.sample_outcomes(rng_state, [0], 500, 99)
        assert np.array_equal(a, b)

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3)
        counts = sv.sample_outcomes(state, [0, 2], 1234, 5)
        assert counts.sum() == 1234

    def test_zero_shots(self):
        with pytest.raises(ValueError, match="shots must be"):
            sv.sample_outcomes(sv.make_basis_state(1, 0), [0], 0, 1)

    @pytest.mark.parametrize("shots", [2.5, math.nan, -math.inf, math.inf])
    def test_shots_must_be_finite_whole_and_positive(self, shots):
        with pytest.raises(ValueError, match="shots must be"):
            sv.sample_outcomes(sv.make_basis_state(1, 0), [0], shots, 1)

    def test_whole_float_shots(self):
        counts = sv.sample_outcomes(sv.make_basis_state(1, 0), [0], 3.0, 1)
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
                qs = rng.permutation(4)[:3]
                a = sv.apply_cswap(a, int(qs[0]), int(qs[1]), int(qs[2]))
                b = sv.apply_cswap(b, int(qs[0]), int(qs[1]), int(qs[2]))
        assert abs(a.norm() - 1.0) < 1e-10
        assert abs(b.norm() - 1.0) < 1e-10
        assert abs(sv.inner_product(a, b) - before) < 1e-10

    def test_sampling_consistency(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 2)
        shots = 20000
        counts = sv.sample_outcomes(state, [0, 1], shots, 12)
        table = sv.exact_marginal(state, [0, 1])
        for outcome, q in enumerate(table.tolist()):
            bound = 5 * math.sqrt(q * (1 - q) / shots) + 1e-9
            assert abs(counts[outcome] / shots - q) <= bound

    def test_resource_ceiling(self):
        with pytest.raises(sv.ResourceError):
            sv.make_basis_state(sv.MAX_QUBITS + 1, 0)

    def test_amplitude_length_validation(self):
        with pytest.raises(ValueError):
            sv.StateVector(2, np.array([1.0, 0.0]))
