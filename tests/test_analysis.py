"""analysis tests: echo identities, distance arithmetic, phase binning."""

import numpy as np
import pytest
from conftest import pooled_eigenphase_counts
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiod import analysis, linalg


def normalized_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestLoschmidtEcho:
    def test_identical_unitaries_give_one(self):
        u = linalg.haar_random_unitary(2, 3)
        psi = normalized_state(np.random.default_rng(0), 4)
        assert analysis.loschmidt_echo(u, u, psi) == pytest.approx(1.0)

    def test_pauli_x_on_zero_gives_zero(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        zero = np.array([1.0, 0.0], dtype=np.complex128)
        assert analysis.loschmidt_echo(np.eye(2), x, zero) == pytest.approx(0.0)

    def test_hadamard_on_zero_gives_half(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        zero = np.array([1.0, 0.0], dtype=np.complex128)
        assert analysis.loschmidt_echo(np.eye(2), h, zero) == pytest.approx(0.5)

    def test_symmetric_in_the_unitaries(self):
        rng = np.random.default_rng(1)
        u1 = linalg.haar_random_unitary(2, 10)
        u2 = linalg.haar_random_unitary(2, 11)
        psi = normalized_state(rng, 4)
        assert (analysis.loschmidt_echo(u1, u2, psi)
                == pytest.approx(analysis.loschmidt_echo(u2, u1, psi)))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        u1 = linalg.haar_random_unitary(2, 20)
        u2 = linalg.haar_random_unitary(2, 21)
        psi = normalized_state(rng, 4)
        base = analysis.loschmidt_echo(u1, u2, psi)
        assert analysis.loschmidt_echo(np.exp(0.7j) * u1, u2, psi) == pytest.approx(base)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            analysis.loschmidt_echo(np.eye(2), np.eye(4), np.ones(2))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_property_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        u1 = linalg.haar_random_unitary(2, seed)
        u2 = linalg.haar_random_unitary(2, seed + 1)
        psi = normalized_state(rng, 4)
        echo = analysis.loschmidt_echo(u1, u2, psi)
        assert 0.0 <= echo <= 1.0 + 1e-12


class TestDistributionDistance:
    def test_hand_example(self):
        assert analysis.distribution_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_quarter_shift_example(self):
        # (0.25^2 + 0.25^2) / 4
        p = [0.5, 0.5, 0.0, 0.0]
        q = [0.25, 0.75, 0.0, 0.0]
        assert analysis.distribution_distance(p, q) == pytest.approx(0.03125)

    def test_zero_on_equal_inputs(self):
        p = np.full(8, 0.125)
        assert analysis.distribution_distance(p, p) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        p = rng.random(8)
        q = rng.random(8)
        assert (analysis.distribution_distance(p, q)
                == analysis.distribution_distance(q, p))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            analysis.distribution_distance([0.5, 0.5], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("q_shape", [(3, 3), (3, 1), (2, 3, 2)])
    def test_rejects_stack_of_wrong_shape(self, q_shape):
        with pytest.raises(ValueError):
            analysis.distribution_distance([0.5, 0.5], np.zeros(q_shape))

    def test_stack_matches_one_dimensional_calls_bit_for_bit(self):
        # exact at every N = 2..1024, against the calls one row at a time
        # and against the np.dot formula the stacked product replaced
        rng = np.random.default_rng(11)
        for size in range(2, 1025):
            p = rng.random(size)
            q = rng.random((5, size))
            got = analysis.distribution_distance(p, q)
            assert got.shape == (5,)
            singles = [analysis.distribution_distance(p, row) for row in q]
            dots = [float(np.dot(p - row, p - row) / size) for row in q]
            assert got.tolist() == singles == dots


class TestEigenphaseHistogram:
    def test_counts_sum_to_dimension(self):
        u = linalg.haar_random_unitary(3, 5)
        hist = analysis.eigenphase_histogram(u)
        assert hist.counts.sum() == 8
        assert len(hist.counts) == analysis.N_PHASE_BINS
        assert len(hist.bin_edges) == analysis.N_PHASE_BINS + 1

    def test_identity_lands_in_the_zero_bin(self):
        hist = analysis.eigenphase_histogram(np.eye(4))
        assert hist.counts[10] == 4
        assert hist.counts.sum() == 4

    def test_phase_pi_lands_in_the_last_bin(self):
        hist = analysis.eigenphase_histogram(np.diag([-1.0 + 0.0j, -1.0 + 0.0j]))
        assert hist.counts[-1] == 2

    def test_edges_span_the_circle(self):
        hist = analysis.eigenphase_histogram(np.eye(2))
        assert hist.bin_edges[0] == pytest.approx(-np.pi)
        assert hist.bin_edges[-1] == pytest.approx(np.pi)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            analysis.eigenphase_histogram(3.0 * np.eye(2))

    def test_pools_the_counts_of_every_matrix(self):
        # eigvals returns -1 - 0j for the last matrix, whose phase folds to +pi
        matrices = [linalg.haar_random_unitary(3, 5), linalg.haar_random_unitary(2, 6),
                    np.diag([complex(-1.0, -0.0), 1.0])]
        pooled = analysis.eigenphase_histogram(*matrices)
        singles = sum(analysis.eigenphase_histogram(m).counts for m in matrices)
        want_counts, want_edges = pooled_eigenphase_counts(matrices)
        assert pooled.counts.tolist() == singles.tolist() == want_counts.tolist()
        assert pooled.bin_edges.tolist() == want_edges.tolist()
        assert analysis.eigenphase_histogram(matrices[2]).counts[[10, -1]].tolist() == [1, 1]

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            analysis.eigenphase_histogram()


class TestEchoReport:
    def test_identity_pair(self):
        assert analysis.echo_report(np.eye(4), np.eye(4)) == pytest.approx((1.0, 1.0))

    def test_phase_flip_splits_the_two_probes(self):
        # diag(1, -1) fixes |0> but rotates the uniform state
        subject = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
        assert analysis.echo_report(subject, np.eye(2)) == pytest.approx((1.0, 0.0))

    def test_probes_are_as_wide_as_the_matrices(self):
        # X on the last of 3 qubits moves |000> to |001> and fixes the uniform state
        subject = np.kron(np.eye(4), [[0, 1], [1, 0]])
        assert analysis.echo_report(subject, np.eye(8)) == pytest.approx((0.0, 1.0))

    @pytest.mark.parametrize("subject, reference", [(np.eye(4), np.eye(2)), (np.eye(2), np.eye(4))])
    def test_rejects_a_pair_of_which_one_has_the_wrong_width(self, subject, reference):
        with pytest.raises(ValueError, match="dimension mismatch"):
            analysis.echo_report(subject, reference)
