import dataclasses
import math
import tracemalloc
from itertools import combinations, groupby

import numpy as np
import pytest

from swaplab import circuits as qc
from swaplab import egraph as eg
from swaplab import statevec as sv

from oracles import forward_pair_map, marginal_reference, simulate_reference


def random_qubits(rng, count):
    return [
        sv.make_qubit_state(t, f)
        for t, f in zip(rng.uniform(0, math.pi, count), rng.uniform(0, 2 * math.pi, count))
    ]


def complex_registers(rng, count, w):
    registers = []
    for _ in range(count):
        amps = rng.normal(size=2**w) + 1j * rng.normal(size=2**w)
        registers.append(sv.StateVector(w, amps / np.linalg.norm(amps)))
    return registers


def padded_negative_registers():
    """Three real 3-vectors with negative entries, encoded and padded to four
    width-2 registers: a product of two negative amplitudes has a -0.0
    imaginary part."""
    points = [[0.3, -0.5, 0.2], [-1.0, -2.0, 0.5], [-0.4, 0.6, -0.2]]
    return qc.pad_inputs([eg.encode_point(p) for p in points], 2)


def unmerged_runs_circuit():
    """Opening Hadamards, then CSWAPs on 12 qubits, where at the real block
    a pass has one distinct control: three on one control that share
    targets fold into one pass; four on alternating controls and one cut
    off by a Hadamard are a pass each; two on one control close it as one
    pass.  Seven passes in all, in two apply_cswap calls, one on each side
    of the Hadamard."""
    layout = qc._layout(4, 2, top=True, mid=True)
    gates = [qc.hadamard(q) for q in range(4)]
    gates += [qc.cswap(1, 4, 6), qc.cswap(1, 6, 8), qc.cswap(1, 5, 4)]
    gates += [qc.cswap(2, 4, 8), qc.cswap(3, 5, 9), qc.cswap(2, 5, 9)]
    gates += [qc.cswap(3, 6, 10), qc.hadamard(1), qc.cswap(3, 7, 11)]
    gates += [qc.cswap(0, 4, 6), qc.cswap(0, 5, 7), qc.hadamard(0)]
    return qc.CircuitSpec(layout, tuple(gates))


# (circuit, inputs) of each builder; the naive battery's circuits are all
# one swap test
SIMULATED = {
    "standard": lambda rng: (qc.build_swap_test(3), complex_registers(rng, 2, 3)),
    "naive": lambda rng: (
        qc.build_naive_multiswap(4, 2)[-1][1], complex_registers(rng, 2, 2)
    ),
    "multi": lambda rng: (qc.build_multiswap_full(8, 1), complex_registers(rng, 8, 1)),
    "multi-w2": lambda rng: (qc.build_multiswap_full(4, 2), complex_registers(rng, 4, 2)),
    "multi-w3": lambda rng: (qc.build_multiswap_full(4, 3), complex_registers(rng, 4, 3)),
    "unmerged-runs": lambda rng: (unmerged_runs_circuit(), complex_registers(rng, 4, 2)),
    "multi-padded-negative": lambda rng: (
        qc.build_multiswap_full(4, 2), padded_negative_registers()
    ),
}


class TestSwapTest:
    def test_counts_w1(self):
        c = qc.build_swap_test(1)
        assert (c.cswap_count, c.layout.ancilla_count, c.layout.total_qubits) == (1, 1, 3)

    def test_counts_w3(self):
        c = qc.build_swap_test(3)
        assert c.cswap_count == 3
        assert (c.layout.ancilla_count, c.layout.total_qubits) == (1, 7)

    def test_gate_order(self):
        c = qc.build_swap_test(2)
        kinds = [g.kind for g in c.gates]
        assert kinds == ["h", "cswap", "cswap", "h"]

    def test_identical_states_give_p0_one(self):
        rng = np.random.default_rng(0)
        (phi,) = random_qubits(rng, 1)
        state = qc.simulate(qc.build_swap_test(1), [phi, phi])
        p0 = sv.exact_marginal(state, 1)[0]
        assert abs(p0 - 1.0) < 1e-12

    def test_orthogonal_states_give_half(self):
        state = qc.simulate(
            qc.build_swap_test(1), [sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)]
        )
        assert abs(sv.exact_marginal(state, 1)[0] - 0.5) < 1e-12

    def test_law_random_pairs(self):
        rng = np.random.default_rng(42)
        circuit = qc.build_swap_test(1)
        for _ in range(50):
            a, b = random_qubits(rng, 2)
            state = qc.simulate(circuit, [a, b])
            p0 = sv.exact_marginal(state, 1)[0]
            expected = 0.5 + 0.5 * abs(sv.inner_product(a, b)) ** 2
            assert abs(p0 - expected) < 1e-12

    def test_width_law_w2(self):
        # per-qubit expansion must preserve the overlap law on wide registers
        rng = np.random.default_rng(9)
        a = sv.prepare(0, random_qubits(rng, 2))
        b = sv.prepare(0, random_qubits(rng, 2))
        state = qc.simulate(qc.build_swap_test(2), [a, b])
        p0 = sv.exact_marginal(state, 1)[0]
        assert abs(p0 - (0.5 + 0.5 * abs(sv.inner_product(a, b)) ** 2)) < 1e-12

    def test_zero_width(self):
        with pytest.raises(ValueError):
            qc.build_swap_test(0)


class TestNaiveBattery:
    def test_n4(self):
        battery = qc.build_naive_multiswap(4, 1)
        assert len(battery) == 6
        assert sum(c.cswap_count for _, c in battery) == 6

    def test_n2(self):
        assert len(qc.build_naive_multiswap(2, 1)) == 1

    def test_n8_w2(self):
        battery = qc.build_naive_multiswap(8, 2)
        assert len(battery) == 28
        assert sum(c.cswap_count for _, c in battery) == 56

    def test_pairs_are_distinct_and_complete(self):
        battery = qc.build_naive_multiswap(5, 1)
        assert {pair for pair, _ in battery} == set(combinations(range(1, 6), 2))

    def test_too_few(self):
        with pytest.raises(ValueError):
            qc.build_naive_multiswap(1, 1)


class TestUnCounts:
    def test_u4(self):
        c = qc.build_un(4, 1)
        assert (c.cswap_count, c.layout.ancilla_count, c.layout.total_qubits) == (3, 3, 7)

    def test_u4_w2(self):
        assert qc.build_un(4, 2).cswap_count == 6

    def test_u8(self):
        c = qc.build_un(8, 1)
        assert (c.cswap_count, c.layout.ancilla_count, c.layout.total_qubits) == (9, 6, 14)

    def test_u16_w3(self):
        assert qc.build_un(16, 3).cswap_count == 63

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_gate_count_law(self, n, w):
        c = qc.build_un(n, w)
        assert c.cswap_count == (3 * n // 2 - 3) * w
        assert c.layout.ancilla_count == 3 * int(math.log2(n / 2))

    def test_bad_n(self):
        for n in (2, 3, 5, 6, 12):
            with pytest.raises(ValueError):
                qc.build_un(n, 1)

    def test_spec_holds_layout_and_gates_only(self):
        assert [f.name for f in dataclasses.fields(qc.CircuitSpec)] == [
            "layout", "gates",
        ]


class TestMultiswapFull:
    def test_counts_n4(self):
        c = qc.build_multiswap_full(4, 1)
        assert (c.cswap_count, c.layout.ancilla_count, c.layout.total_qubits) == (4, 4, 8)

    def test_counts_n8(self):
        c = qc.build_multiswap_full(8, 1)
        assert (c.cswap_count, c.layout.ancilla_count, c.layout.total_qubits) == (10, 7, 15)

    def test_measured_qubits(self):
        # the measured qubits are the leading ancilla_count: top, then mids
        c = qc.build_multiswap_full(4, 1)
        assert c.layout.top_ancilla == 0 and c.layout.mid_ancillas == (1, 2, 3)
        assert c.layout.ancilla_count == 4

    def test_marginal_normalizes(self):
        rng = np.random.default_rng(77)
        c = qc.build_multiswap_full(4, 1)
        state = qc.simulate(c, random_qubits(rng, 4))
        table = sv.exact_marginal(state, c.layout.ancilla_count)
        assert abs(sum(table.tolist()) - 1.0) < 1e-10


class TestPadInputs:
    def test_five_to_eight(self):
        states = [sv.make_basis_state(1, 1)] * 5
        padded = qc.pad_inputs(states, 1)
        assert len(padded) == 8
        for s in padded[5:]:
            assert np.array_equal(s.amplitudes, [1, 0])

    def test_four_unchanged(self):
        states = [sv.make_basis_state(1, 0)] * 4
        assert len(qc.pad_inputs(states, 1)) == 4

    def test_two_to_four(self):
        assert len(qc.pad_inputs([sv.make_basis_state(1, 0)] * 2, 1)) == 4

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            qc.pad_inputs([sv.make_basis_state(1, 0), sv.make_basis_state(2, 0)], 1)


class TestPairMap:
    def test_n4_covers_all_pairs(self):
        pm = qc.derive_pair_map(4)
        assert pm.pairs.shape == (8, 2) and pm.pairs.dtype == np.int64
        assert set(pm.multiplicity) == set(combinations(range(1, 5), 2))

    def test_n4_multiplicity_sum(self):
        pm = qc.derive_pair_map(4)
        assert sum(pm.multiplicity.values()) == 8

    def test_n4_known_map(self):
        # frozen from the exact tagged statevector run (cross-checked below)
        pm = qc.derive_pair_map(4)
        assert pm.pairs[0b000].tolist() == [1, 2]
        assert pm.pairs[0b001].tolist() == [3, 2]
        assert pm.pairs[0b111].tolist() == [4, 1]
        assert pm.multiplicity == {
            (1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 1,
        }

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_coverage(self, n):
        pm = qc.derive_pair_map(n)
        assert set(pm.multiplicity) == set(combinations(range(1, n + 1), 2))
        assert sum(pm.multiplicity.values()) == 2**pm.d

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_closed_form_multiplicity(self, n):
        """mult(i, j) = 1 for odd j - i, else 2^(2*v2(j - i) - 1)."""
        pm = qc.derive_pair_map(n)
        for i, j in combinations(range(1, n + 1), 2):
            diff = j - i
            v2 = (diff & -diff).bit_length() - 1
            assert pm.multiplicity[(i, j)] == (1 if v2 == 0 else 2 ** (2 * v2 - 1))
        assert sum(pm.multiplicity.values()) == (n // 2) ** 3

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_matches_forward_label_tracking(self, n):
        pm = qc.derive_pair_map(n)
        pairs, multiplicity = forward_pair_map(n)
        assert pm.pairs.dtype == np.int64 and pm.pairs.flags.c_contiguous
        assert not pm.pairs.flags.writeable
        assert np.array_equal(pm.pairs, pairs)
        assert pm.multiplicity == multiplicity

    def test_n8_has_64_outcomes(self):
        assert qc.derive_pair_map(8).pairs.shape == (64, 2)

    def test_pair_constant(self):
        pm = qc.derive_pair_map(4)
        assert pm.pair_constant(1, 3) == pytest.approx(2 / 16)
        assert pm.pair_constant(2, 1) == pytest.approx(1 / 16)

    def test_resource_cap(self):
        with pytest.raises(sv.ResourceError):
            qc.derive_pair_map(128)

    def test_pairs_read_only(self):
        pm = qc.derive_pair_map(4)
        with pytest.raises(ValueError):
            pm.pairs[0, 0] = 3

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_reduce_by_pair_matches_outcome_loop(self, n):
        """Sums (and maxima) over each pair's outcomes, in outcome order,
        against a dict accumulation keyed by the sorted pair."""
        pm = qc.derive_pair_map(n)
        values = np.random.default_rng(n).random(2**pm.d)
        totals, maxima = {}, {}
        for value, (a, b) in zip(values.tolist(), pm.pairs.tolist()):
            key = (min(a, b), max(a, b))
            totals[key] = totals.get(key, 0.0) + value
            maxima[key] = max(maxima.get(key, 0.0), value)
        pairs = list(combinations(range(1, n + 1), 2))
        assert pm.reduce_by_pair(values).tolist() == [totals[k] for k in pairs]
        assert pm.reduce_by_pair(values, np.maximum).tolist() == [
            maxima[k] for k in pairs
        ]

    def test_statevector_tag_cross_check_n4(self):
        """Exact tagged simulation agrees with the permutation-walk map."""
        w = 2
        circuit = qc.build_un(4, w)
        tags = [sv.make_basis_state(w, i) for i in range(4)]
        state = qc.simulate(circuit, tags)
        pm = qc.derive_pair_map(4)
        mids = circuit.layout.mid_ancillas
        reg1, reg2 = circuit.layout.inputs[0], circuit.layout.inputs[1]
        measured = list(mids) + list(reg1) + list(reg2)
        assert measured == list(range(len(measured)))
        table = sv.exact_marginal(state, len(measured))
        d = len(mids)
        seen = {}
        for index, prob in enumerate(table.tolist()):
            if prob < 1e-12:
                continue
            # the mid outcome is the top d bits, then tag 1 and tag 2
            outcome, tag1, tag2 = index >> 2 * w, (index >> w) % 2**w, index % 2**w
            # tags must be deterministic per outcome
            assert outcome not in seen
            seen[outcome] = (tag1 + 1, tag2 + 1)
            assert abs(prob - 1 / 2**d) < 1e-12
        assert seen == dict(enumerate(map(tuple, pm.pairs.tolist())))

    def test_register_permutation_property_via_tags(self):
        """No tag is lost or duplicated in any branch (all registers)."""
        w = 2
        circuit = qc.build_un(4, w)
        tags = [sv.make_basis_state(w, i) for i in range(4)]
        state = qc.simulate(circuit, tags)
        mids = list(circuit.layout.mid_ancillas)
        all_regs = [q for reg in circuit.layout.inputs for q in reg]
        assert mids + all_regs == list(range(state.num_qubits))
        table = sv.exact_marginal(state, state.num_qubits)
        for index, prob in enumerate(table.tolist()):
            if prob < 1e-12:
                continue
            # after the mid outcome come the registers, w bits each, 0 first
            contents = [(index >> (3 - i) * w) % 2**w for i in range(4)]
            assert sorted(contents) == [0, 1, 2, 3]


class TestJointProbabilityLaw:
    @pytest.mark.parametrize("n", [4, 8])
    def test_per_outcome_law(self, n):
        """P(top=0, outcome) == (1 + |<phi_i|phi_j>|^2) / 2^(d+1) exactly."""
        rng = np.random.default_rng(100 + n)
        circuit = qc.build_multiswap_full(n, 1)
        pm = qc.derive_pair_map(n)
        d = pm.d
        inputs = random_qubits(rng, n)
        state = qc.simulate(circuit, inputs)
        table = sv.exact_marginal(state, circuit.layout.ancilla_count)
        # top = 0 is the first half: those indices are the mid outcomes
        for outcome, (i, j) in enumerate(pm.pairs.tolist()):
            ovl = abs(sv.inner_product(inputs[i - 1], inputs[j - 1])) ** 2
            expected = (1 + ovl) / 2 ** (d + 1)
            assert abs(table[outcome] - expected) < 1e-10

    def test_identical_pair_outcome_probability(self):
        # identical states on a mapped pair: (1+1)/2^(d+1) = 0.125 at n=4
        phi = sv.make_qubit_state(0.9, 0.2)
        others = [sv.make_qubit_state(2.0, 1.0), sv.make_qubit_state(1.2, 2.5)]
        # registers 1 and 3 share a state; outcome (0,0,1) maps to (3, 2)... use
        # pair (1, 2) via registers 1 and 2 at outcome (0,0,0)
        inputs = [phi, phi, others[0], others[1]]
        circuit = qc.build_multiswap_full(4, 1)
        state = qc.simulate(circuit, inputs)
        table = sv.exact_marginal(state, circuit.layout.ancilla_count)
        assert abs(table[0b0000] - 0.125) < 1e-12

    def test_orthogonal_pair_half_of_identical(self):
        zero, one = sv.make_basis_state(1, 0), sv.make_basis_state(1, 1)
        rng = np.random.default_rng(4)
        fillers = random_qubits(rng, 2)
        circuit = qc.build_multiswap_full(4, 1)
        state = qc.simulate(circuit, [zero, one, *fillers])
        table = sv.exact_marginal(state, circuit.layout.ancilla_count)
        assert abs(table[0b0000] - 0.0625) < 1e-12

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_closed_form_matches_statevec(self, n, w):
        """The whole (top, mid) marginal of the multi-state circuit on padded
        encodings equals (1 +/- |G|^2[pairs - 1]) / 2^(d+1), G the Gram
        matrix of the padded encodings: + for top = 0 (the first half), -
        for top = 1."""
        rng = np.random.default_rng(10 * n + w)
        encoded = [eg.encode_point(p) for p in rng.normal(size=(n, 2**w))]
        padded = qc.pad_inputs(encoded, w)
        circuit = qc.build_multiswap_full(len(padded), w)
        pm = qc.derive_pair_map(len(padded))
        state = qc.simulate(circuit, padded)
        table = sv.exact_marginal(state, circuit.layout.ancilla_count)
        amps = np.stack([s.amplitudes for s in padded])
        gram_sq = np.abs(amps.conj() @ amps.T) ** 2
        mapped = gram_sq[pm.pairs[:, 0] - 1, pm.pairs[:, 1] - 1]
        closed = np.concatenate([1 + mapped, 1 - mapped]) / 2.0 ** (pm.d + 1)
        assert np.abs(table - closed).max() <= 1e-15

    def test_per_pair_aggregate_matches_multiplicity(self):
        rng = np.random.default_rng(55)
        n = 4
        circuit = qc.build_multiswap_full(n, 1)
        pm = qc.derive_pair_map(n)
        inputs = random_qubits(rng, n)
        state = qc.simulate(circuit, inputs)
        table = sv.exact_marginal(state, circuit.layout.ancilla_count)
        for (i, j), mult in pm.multiplicity.items():
            agg = sum(
                table[outcome]
                for outcome, (a, b) in enumerate(pm.pairs.tolist())
                if {a, b} == {i, j}
            )
            ovl = abs(sv.inner_product(inputs[i - 1], inputs[j - 1])) ** 2
            assert agg == pytest.approx(mult * (1 + ovl) / 2 ** (pm.d + 1), abs=1e-12)
            assert agg == pytest.approx(
                pm.pair_constant(i, j) * (1 + ovl), abs=1e-12
            )


class TestCircuitJson:
    def test_golden_u4(self):
        dump = qc.circuit_to_json(qc.build_un(4, 1))
        assert dump["n"] == 4 and dump["w"] == 1
        assert dump["counts"] == {"cswap": 3, "ancilla": 3, "total_qubits": 7}
        assert dump["layout"]["mid_ancillas"] == [0, 1, 2]
        assert dump["gates"][:3] == [
            {"type": "h", "qubits": [0]},
            {"type": "h", "qubits": [1]},
            {"type": "h", "qubits": [2]},
        ]
        # the three register swaps of the base circuit, in figure order
        assert dump["gates"][3:] == [
            {"type": "cswap", "qubits": [2, 3, 5]},
            {"type": "cswap", "qubits": [1, 3, 6]},
            {"type": "cswap", "qubits": [0, 4, 5]},
        ]

    def test_round_trip_fields(self):
        dump = qc.circuit_to_json(qc.build_multiswap_full(8, 2))
        assert set(dump) == {"n", "w", "layout", "gates", "counts"}
        assert dump["counts"]["cswap"] == 20
        assert len(dump["gates"]) == sum(
            1 for _ in dump["gates"]
        )  # serializable list

    def test_simulate_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(3)
        inputs = [sv.prepare(0, random_qubits(rng, 2)) for _ in range(4)]
        before = [s.amplitudes.tobytes() for s in inputs]
        qc.simulate(qc.build_multiswap_full(4, 2), inputs)
        assert [s.amplitudes.tobytes() for s in inputs] == before

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("builder", sorted(SIMULATED))
    def test_simulate_matches_reference_kernels(self, monkeypatch, builder, block):
        # at the real block size, and in blocks of 64 amplitudes, so that
        # every gate runs its block loops; the reference applies the opening
        # Hadamards as gates
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        circuit, inputs = SIMULATED[builder](np.random.default_rng(len(builder)))
        got = qc.simulate(circuit, inputs).amplitudes
        assert got.tobytes() == simulate_reference(circuit, inputs).amplitudes.tobytes()

    @staticmethod
    def _passes(monkeypatch, circuit, inputs):
        """The number of apply_cswap calls simulate makes, the number of
        CSWAPs in each pass that apply_cswap cuts them into, and the state
        simulate returns."""
        calls, widths = [], []
        kernel, swap_pass = sv.apply_cswap, sv._swap_pass

        def counted(state, gates):
            calls.append(len(gates))
            return kernel(state, gates)

        def spied(cube, gates):
            widths.append(len(gates))
            return swap_pass(cube, gates)

        monkeypatch.setattr(sv, "apply_cswap", counted)
        monkeypatch.setattr(sv, "_swap_pass", spied)
        state = qc.simulate(circuit, inputs)
        return len(calls), widths, state

    @staticmethod
    def _stretches(circuit):
        """The maximal stretches of consecutive CSWAPs in the gate list."""
        kinds = groupby(g.kind for g in circuit.gates)
        return sum(1 for kind, _ in kinds if kind == "cswap")

    @pytest.mark.parametrize(
        "circuit,passes",
        [
            # one call; at 16 qubits a pass has one control, so each
            # register swap is a pass
            (qc.build_multiswap_full(4, 3), 4),
            (qc.build_swap_test(3), 1),
            # two calls, one on each side of the Hadamard on qubit 1
            (unmerged_runs_circuit(), 7),
        ],
    )
    def test_one_kernel_call_per_register_swap(self, monkeypatch, circuit, passes):
        # one apply_cswap call per stretch of CSWAPs, cut into passes there
        layout = circuit.layout
        inputs = [sv.make_basis_state(layout.w, 0)] * layout.n
        calls, widths, _ = self._passes(monkeypatch, circuit, inputs)
        assert calls == self._stretches(circuit)
        assert len(widths) == passes
        assert sum(widths) == circuit.cswap_count

    def test_multi_w2_stretch_is_one_pass(self, monkeypatch):
        # build_multiswap_full(8, 2): 23 qubits, whose one stretch of CSWAPs
        # has 16 targets and 7 controls, one pass at the real block.  The
        # pass is spied, not run, so the zero state is never written.
        circuit = qc.build_multiswap_full(8, 2)
        assert self._stretches(circuit) == 1
        stretch = [g.qubits for g in circuit.gates if g.kind == "cswap"]
        widths = []
        monkeypatch.setattr(sv, "_swap_pass", lambda cube, gates: widths.append(len(gates)))
        n = circuit.layout.total_qubits
        amps = np.zeros(2**n, dtype=np.complex128)
        sv.apply_cswap(sv.StateVector(n, amps), stretch)
        assert widths == [len(stretch)] == [circuit.cswap_count]

    @pytest.mark.parametrize(
        "block,gates,widths",
        [
            # at 64 amplitudes a pass has at most 6 targets and, on these 12
            # qubits, at most 6 controls
            (64, [(1, 4, 5), (1, 6, 7), (1, 8, 9), (1, 10, 11)], [3, 1]),
            (64, [(1, 4, 5), (1, 5, 6), (1, 6, 7), (1, 7, 8), (1, 8, 9), (1, 9, 10)],
             [5, 1]),
            (64, [(1, 4, 6), (2, 6, 8), (1, 4, 8), (3, 5, 9)], [4]),
            # a target that is an earlier control, a control that is an
            # earlier target, a Hadamard between two swaps
            (64, [(1, 4, 6), (2, 1, 5)], [1, 1]),
            (64, [(1, 4, 6), (4, 5, 7)], [1, 1]),
            (64, [(1, 4, 6), "h2", (1, 5, 7)], [1, 1]),
            # at 1024 amplitudes a pass has at most 12 - 10 = 2 controls; at
            # the real block, 1
            (1024, [(1, 4, 5), (2, 6, 7), (3, 8, 9), (1, 10, 11)], [2, 2]),
            (None, [(1, 4, 5), (2, 6, 7), (1, 8, 9), (1, 10, 11)], [1, 1, 2]),
        ],
    )
    def test_runs_follow_the_block(self, monkeypatch, block, gates, widths):
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        layout = qc._layout(4, 2, top=True, mid=True)
        body = [qc.hadamard(int(g[1])) if g[0] == "h" else qc.cswap(*g) for g in gates]
        circuit = qc.CircuitSpec(layout, tuple(qc.hadamard(q) for q in range(4)) + tuple(body))
        inputs = complex_registers(np.random.default_rng(len(gates)), 4, 2)
        calls, got, state = self._passes(monkeypatch, circuit, inputs)
        assert got == widths
        assert calls == self._stretches(circuit)
        expected = simulate_reference(circuit, inputs).amplitudes
        assert state.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("builder", sorted(SIMULATED))
    def test_dirty_out_gives_the_fresh_bits(self, builder):
        circuit, inputs = SIMULATED[builder](np.random.default_rng(len(builder)))
        fresh = qc.simulate(circuit, inputs).amplitudes
        dirty = np.full_like(fresh, complex(np.nan, -1.0))
        dirty[1::2] = -0.0
        state = qc.simulate(circuit, inputs, out=dirty)
        assert state.amplitudes is dirty
        assert dirty.tobytes() == fresh.tobytes()

    def test_dirty_out_keeps_the_negative_zeros(self):
        # the opening Hadamards turn them to +0.0 in every block but the
        # last, the one on every Hadamard's |1> branch
        _, inputs = SIMULATED["multi-padded-negative"](None)
        fresh = sv.prepare(4, inputs).amplitudes
        parts = fresh.view(np.float64)
        assert (np.signbit(parts) & (parts == 0.0)).any()
        dirty = np.full_like(fresh, complex(1.0, np.nan))
        sv.prepare(4, inputs, out=dirty)
        assert dirty.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize(
        "out,problem",
        [
            (np.zeros(2**10, np.complex128), "length 4096"),
            (np.zeros(2**12, np.complex64), "complex128"),
            (np.zeros(2**13, np.complex128)[::2], "C-contiguous"),
            (np.frombuffer(bytes(16 * 2**12), np.complex128), "writable"),
        ],
    )
    def test_bad_out_rejected(self, out, problem):
        circuit, inputs = SIMULATED["multi-w2"](np.random.default_rng(0))
        with pytest.raises(ValueError, match=problem):
            qc.simulate(circuit, inputs, out=out)

    def test_padded_negative_case_has_negative_zeros(self):
        # the state the circuit opens on carries -0.0 parts
        _, inputs = SIMULATED["multi-padded-negative"](None)
        parts = sv.prepare(0, inputs).amplitudes.view(np.float64)
        assert (np.signbit(parts) & (parts == 0.0)).any()

    @pytest.mark.parametrize("block", [None, 128])
    @pytest.mark.parametrize("builder", sorted(SIMULATED))
    def test_marginal_matches_whole_array_marginal(self, monkeypatch, builder, block):
        # bit for bit, on the measured ancillas and on shorter and longer
        # prefixes; 128 amplitudes is the smallest block at which a run's
        # block sums add as numpy's pairwise sum does
        if block is not None:
            monkeypatch.setattr(sv, "_BLOCK", block)
        circuit, inputs = SIMULATED[builder](np.random.default_rng(len(builder)))
        state = qc.simulate(circuit, inputs)
        n = state.num_qubits
        for k in (circuit.layout.ancilla_count, 1, 3, n - 1, n, 0):
            got = sv.exact_marginal(state, k)
            assert got.tobytes() == marginal_reference(state, k).tobytes(), k

    @pytest.mark.parametrize("measure", [None, "marginal", "sample"])
    @pytest.mark.parametrize("case", ["swap-21", "multi-15", "multi-w3"])
    def test_simulate_peak_is_one_state_and_a_few_blocks(self, monkeypatch, case, measure):
        # swap-21: two 10-qubit registers, a 32 MiB state at the real block
        # size.  multi-15: build_multiswap_full(8, 1) in blocks of 1024
        # amplitudes, where a Kronecker chain's last partial product is half
        # the state.  multi-w3: build_multiswap_full(4, 3), 16 qubits, in
        # blocks of 1024, each register swap one call on 3 qubit pairs.
        # Copy-per-gate kernels peak at 2.5 states, whole-array in-place
        # kernels, that chain and a whole-array |amp|^2 at 1.5.
        rng = np.random.default_rng(4)
        if case == "swap-21":
            circuit = qc.build_swap_test(10)
            inputs = [sv.prepare(0, random_qubits(rng, 10)) for _ in range(2)]
        elif case == "multi-15":
            monkeypatch.setattr(sv, "_BLOCK", 1024)
            circuit = qc.build_multiswap_full(8, 1)
            inputs = random_qubits(rng, 8)
        else:
            monkeypatch.setattr(sv, "_BLOCK", 1024)
            circuit = qc.build_multiswap_full(4, 3)
            inputs = complex_registers(rng, 4, 3)
        measured = circuit.layout.ancilla_count
        state_bytes = 16 * 2**circuit.layout.total_qubits
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = qc.simulate(circuit, inputs)
            if measure == "marginal":
                sv.exact_marginal(state, measured)
            elif measure == "sample":
                sv.sample_outcomes(state, measured, 1000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= state_bytes + 4 * 16 * sv._BLOCK, peak / state_bytes

    def test_simulate_checks_bytes_before_allocating(self):
        # 1 + 2 * 14 = 29 qubits, one past the ceiling: an 8 GiB state
        circuit = qc.build_swap_test(14)
        inputs = [sv.make_basis_state(14, 0)] * 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(sv.ResourceError, match="8589934592 bytes"):
                qc.simulate(circuit, inputs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "opening",
        [[], [0, 0, 2, 3], [0, 1, 2, 4], [0, 1, 2]],
        ids=["none", "repeated", "on-an-input", "one-short"],
    )
    def test_simulate_needs_one_opening_hadamard_per_ancilla(self, opening):
        # build_multiswap_full(4, 3): 4 ancillas, 16 qubits, a 1 MiB state;
        # the circuit is refused before it is allocated
        full = qc.build_multiswap_full(4, 3)
        body = full.gates[4:]
        circuit = qc.CircuitSpec(full.layout, tuple(map(qc.hadamard, opening)) + body)
        inputs = complex_registers(np.random.default_rng(1), 4, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="must open with one Hadamard on each"):
                qc.simulate(circuit, inputs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_opening_hadamards_in_any_order(self):
        full = qc.build_multiswap_full(4, 3)
        opening = tuple(map(qc.hadamard, [2, 0, 3, 1]))
        circuit = qc.CircuitSpec(full.layout, opening + full.gates[4:])
        inputs = complex_registers(np.random.default_rng(1), 4, 3)
        got = qc.simulate(circuit, inputs).amplitudes.tobytes()
        assert got == qc.simulate(full, inputs).amplitudes.tobytes()
        assert got == simulate_reference(circuit, inputs).amplitudes.tobytes()

    def test_simulate_validates_inputs(self):
        c = qc.build_swap_test(1)
        with pytest.raises(ValueError):
            qc.simulate(c, [sv.make_basis_state(1, 0)])
        with pytest.raises(ValueError):
            qc.simulate(c, [sv.make_basis_state(2, 0), sv.make_basis_state(2, 0)])
