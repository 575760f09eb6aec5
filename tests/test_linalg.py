"""linalg tests against hand examples and known spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiod import linalg


class TestUnitarityDefect:
    def test_identity_is_zero(self):
        assert linalg.unitarity_defect(np.eye(4)) == 0.0

    def test_scalar_example(self):
        # M = [[2]]: M^H M - I = [[3]], defect = 9 / 1
        assert linalg.unitarity_defect(np.array([[2.0]])) == pytest.approx(9.0)

    def test_scaled_identity_example(self):
        # 2I at dim 2: diag of M^H M - I is (3, 3), defect = 18 / 4
        assert linalg.unitarity_defect(2.0 * np.eye(2)) == pytest.approx(4.5)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.unitarity_defect(np.ones((2, 3)))

    def test_permutation_is_unitary(self):
        p = np.eye(4)[[2, 0, 3, 1]]
        assert linalg.unitarity_defect(p) < 1e-30


class TestHaarRandomUnitary:
    def test_deterministic_given_seed(self):
        a = linalg.haar_random_unitary(3, 42)
        b = linalg.haar_random_unitary(3, 42)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = linalg.haar_random_unitary(3, 0)
        b = linalg.haar_random_unitary(3, 1)
        assert not np.allclose(a, b)

    def test_unitary_to_machine_precision(self):
        for seed in range(10):
            u = linalg.haar_random_unitary(2, seed)
            assert linalg.unitarity_defect(u) < 1e-28

    def test_trace_second_moment(self):
        # E|tr U|^2 = 1 for the Haar measure on U(2); 300 fixed draws give
        # a standard error near 0.06, so 0.25 is a wide deterministic gate
        vals = [
            abs(np.trace(linalg.haar_random_unitary(1, (77, i)))) ** 2
            for i in range(300)
        ]
        assert abs(np.mean(vals) - 1.0) < 0.25

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            linalg.haar_random_unitary(0, 0)


class TestEigenphases:
    def test_identity_all_zero(self):
        assert np.allclose(linalg.eigenphases(np.eye(4)), 0.0)

    def test_diagonal_signs(self):
        phases = np.sort(linalg.eigenphases(np.diag([1.0, -1.0]).astype(complex)))
        assert phases == pytest.approx([0.0, np.pi])

    def test_diagonal_quarter_turns(self):
        phases = np.sort(linalg.eigenphases(np.diag([1j, -1j])))
        assert phases == pytest.approx([-np.pi / 2, np.pi / 2])

    def test_known_spectrum_recovered(self):
        # conjugation leaves the spectrum alone, so the phases must come
        # back regardless of the random basis
        theta = np.array([-3.0, -1.2, 0.3, 2.5])
        v = linalg.haar_random_unitary(2, 123)
        u = v @ np.diag(np.exp(1j * theta)) @ v.conj().T
        assert np.allclose(np.sort(linalg.eigenphases(u)), theta, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            linalg.eigenphases(2.0 * np.eye(2))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_range_is_half_open(self, seed):
        u = linalg.haar_random_unitary(2, seed)
        phases = linalg.eigenphases(u)
        assert np.all(phases > -np.pi)
        assert np.all(phases <= np.pi)

    def test_minus_pi_folds_to_plus_pi(self):
        phases = linalg.eigenphases(np.diag([-1.0 + 0.0j, 1.0 + 0.0j]))
        assert np.pi in phases
        assert -np.pi not in phases
