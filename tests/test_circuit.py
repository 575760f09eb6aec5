"""circuit tests: scalar-loop pipeline references and brute-force period checks."""

import cmath
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiod import circuit, linalg


def brute_force_period(table):
    """Smallest p with table[x] == table[x mod p] everywhere."""
    size = len(table)
    for p in range(1, size + 1):
        if all(table[x] == table[x % p] for x in range(size)):
            return p
    return size


def dft_matrix_reference(n):
    # scalar cmath loop, independent of the vectorized construction
    size = 2 ** n
    out = np.zeros((size, size), dtype=np.complex128)
    for j in range(size):
        for k in range(size):
            out[j, k] = cmath.exp(-2j * cmath.pi * j * k / size) / math.sqrt(size)
    return out


def pipeline_reference(f, m3):
    """X-register distribution by direct dictionary simulation."""
    size, width = 2 ** f.n, 2 ** f.m
    amp = {(x, f(x)): 1.0 / math.sqrt(size) for x in range(size)}
    p = []
    for i in range(size):
        total = 0.0
        for j in range(width):
            acc = 0.0 + 0.0j
            for x in range(size):
                if (x, j) in amp:
                    acc += complex(m3[i, x]) * amp[(x, j)]
            total += abs(acc) ** 2
        p.append(total)
    return np.array(p)


def cf_denominators_reference(q, den):
    """Convergent denominators via Fraction arithmetic."""
    terms = []
    a, b = q, den
    while b:
        terms.append(a // b)
        a, b = b, a % b
    dens = []
    for i in range(len(terms)):
        value = Fraction(terms[i])
        for t in reversed(terms[:i]):
            value = t + 1 / value
        dens.append(value.denominator)
    return dens


def frontier_closure_reference(support, size):
    """Candidate periods by the pairwise frontier loop the sieve replaced,
    from Fraction-arithmetic convergents (independent of the expansion
    under test)."""
    cands = {1}
    for q in support:
        cands.update(d for d in cf_denominators_reference(q, size) if 1 <= d <= size)
    frontier = set(cands)
    while frontier:
        new = set()
        for a in frontier:
            for b in cands:
                combined = math.lcm(a, b)
                if combined <= size and combined not in cands:
                    new.add(combined)
        cands |= new
        frontier = new
    return sorted(cands)


def comb_power_reference(size, r, points):
    """|fft|^2 of `points` ones spaced r apart from 0 in a length-size array."""
    comb = np.zeros(size)
    comb[:points * r:r] = 1.0
    spectrum = np.fft.fft(comb)
    return spectrum.real ** 2 + spectrum.imag ** 2


def per_period_reference(n, r):
    """The reference of period r from its own two comb FFTs: the closed form
    each table row must reproduce bit for bit."""
    size = 2 ** n
    count, longer = divmod(size, r)
    p = (r - longer) * comb_power_reference(size, r, count)
    if longer:
        p += longer * comb_power_reference(size, r, count + 1)
    p /= size ** 2
    return p


def clear_circuit_caches():
    """Clear every functools cache of qperiod.circuit, as a benchmark's cold
    round does: the tables of a fresh process."""
    for value in vars(circuit).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def staged_marginal(f, m3):
    """prepare -> oracle -> post-unitary -> marginal on the joint amplitude grid."""
    grid = circuit.apply_oracle(circuit.prepare_superposition(f.n, f.m), f)
    return circuit.marginal_distribution(circuit.apply_post_unitary(grid, m3))


class TestPeriodicFunction:
    def test_call_reads_table(self):
        f = circuit.PeriodicFunction(n=2, m=2, r=2, table=(3, 1, 3, 1))
        assert [f(x) for x in range(4)] == [3, 1, 3, 1]

    def test_rejects_period_out_of_range(self):
        with pytest.raises(ValueError):
            circuit.PeriodicFunction(n=2, m=2, r=5, table=(0, 1, 2, 3))

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValueError):
            circuit.PeriodicFunction(n=2, m=2, r=1, table=(0, 0, 0))

    def test_rejects_values_out_of_codomain(self):
        with pytest.raises(ValueError):
            circuit.PeriodicFunction(n=2, m=1, r=2, table=(0, 2, 0, 2))

    def test_rejects_aperiodic_table(self):
        with pytest.raises(ValueError):
            circuit.PeriodicFunction(n=2, m=2, r=2, table=(0, 1, 0, 2))

    def test_rejects_repeated_values_within_period(self):
        # r = 2 demands two distinct values; a constant table has true
        # period 1 and must be declared as such
        with pytest.raises(ValueError):
            circuit.PeriodicFunction(n=2, m=2, r=2, table=(0, 0, 0, 0))

    def test_dict_round_trip(self):
        # run manifests embed to_dict(); it must carry the whole function
        f = circuit.generate_periodic_function(3, 3, 3, 9)
        d = f.to_dict()
        assert circuit.PeriodicFunction(d["n"], d["m"], d["r"], tuple(d["table"])) == f


class TestGeneratePeriodicFunction:
    def test_declared_period_is_exact(self):
        for n in (2, 3, 4):
            for r in range(1, 2 ** n + 1):
                if r > 2 ** n:
                    continue
                f = circuit.generate_periodic_function(n, n, r, (n, r))
                assert brute_force_period(f.table) == r

    def test_deterministic(self):
        a = circuit.generate_periodic_function(3, 3, 5, 11)
        b = circuit.generate_periodic_function(3, 3, 5, 11)
        assert a == b

    def test_rejects_period_beyond_register(self):
        with pytest.raises(ValueError):
            circuit.generate_periodic_function(2, 2, 5, 0)

    def test_rejects_codomain_too_small(self):
        with pytest.raises(ValueError):
            circuit.generate_periodic_function(3, 1, 3, 0)

    @given(st.integers(2, 5), st.integers(1, 16), st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_property_period_and_range(self, n, r, seed):
        if r > 2 ** n:
            r = 2 ** n
        f = circuit.generate_periodic_function(n, n, r, seed)
        assert brute_force_period(f.table) == r
        assert all(0 <= v < 2 ** n for v in f.table)


class TestPipelineStages:
    def test_prepare_superposition_layout(self):
        grid = circuit.prepare_superposition(2, 3)
        assert grid.shape == (4, 8)
        assert np.allclose(grid[:, 0], 0.5)
        assert np.all(grid[:, 1:] == 0)

    def test_prepare_rejects_empty_registers(self):
        with pytest.raises(ValueError):
            circuit.prepare_superposition(0, 2)

    def test_oracle_relocates_amplitudes(self):
        f = circuit.PeriodicFunction(n=2, m=2, r=2, table=(3, 1, 3, 1))
        grid = circuit.apply_oracle(circuit.prepare_superposition(2, 2), f)
        for x in range(4):
            assert grid[x, f(x)] == pytest.approx(0.5)
        assert np.count_nonzero(grid) == 4

    def test_oracle_rejects_register_mismatch(self):
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        with pytest.raises(ValueError):
            circuit.apply_oracle(circuit.prepare_superposition(3, 3), f)

    @pytest.mark.parametrize("n, m", [(3, 2), (2, 3), (2, 1)])
    def test_oracle_rejects_a_grid_of_another_shape(self, n, m):
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        shapes = rf"\({2 ** n}, {2 ** m}\) does not match function \(4, 4\)"
        with pytest.raises(ValueError, match=shapes):
            circuit.apply_oracle(circuit.prepare_superposition(n, m), f)

    def test_oracle_rejects_support_off_zero(self):
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        grid = np.zeros((4, 4), dtype=np.complex128)
        grid[0, 1] = 1.0
        with pytest.raises(ValueError):
            circuit.apply_oracle(grid, f)

    def test_post_unitary_acts_on_x_only(self):
        f = circuit.generate_periodic_function(2, 2, 2, 1)
        grid = circuit.apply_oracle(circuit.prepare_superposition(2, 2), f)
        swap = np.eye(4)[[1, 0, 3, 2]]
        assert np.allclose(circuit.apply_post_unitary(grid, swap), swap @ grid)

    def test_post_unitary_rejects_wrong_shape(self):
        grid = circuit.prepare_superposition(2, 2)
        with pytest.raises(ValueError):
            circuit.apply_post_unitary(grid, np.eye(8))

    @pytest.mark.parametrize("n, m, width", [(2, 3, 8), (3, 2, 4), (2, 2, 2)])
    def test_post_unitary_rejects_a_width_other_than_the_row_count(self, n, m, width):
        grid = circuit.prepare_superposition(n, m)
        shapes = rf"\({width}, {width}\) does not act on the X rows of a \({2 ** n}, {2 ** m}\)"
        with pytest.raises(ValueError, match=shapes):
            circuit.apply_post_unitary(grid, np.eye(width))

    def test_marginal_sums_columns(self):
        grid = np.array([[0.5, 0.5j], [0.5, -0.5]], dtype=np.complex128)
        assert np.allclose(circuit.marginal_distribution(grid), [0.5, 0.5])


class TestInverseQftMatrix:
    def test_matches_scalar_reference(self):
        for n in (1, 2, 3):
            assert np.allclose(circuit.inverse_qft_matrix(n),
                               dft_matrix_reference(n), atol=1e-14)

    def test_unitary(self):
        assert linalg.unitarity_defect(circuit.inverse_qft_matrix(4)) < 1e-28

    def test_cached_and_frozen(self):
        a = circuit.inverse_qft_matrix(3)
        assert circuit.inverse_qft_matrix(3) is a
        assert not a.flags.writeable


class TestReferenceDistribution:
    def test_matches_scalar_pipeline(self):
        for n, r, seed in [(2, 2, 0), (3, 3, 1), (3, 5, 2), (3, 8, 3)]:
            f = circuit.generate_periodic_function(n, n, r, seed)
            expected = pipeline_reference(f, dft_matrix_reference(n))
            assert np.allclose(circuit.reference_distribution(f), expected,
                               atol=1e-12)

    def test_divisor_period_peaks(self):
        # r | 2^n puts mass 1/r exactly on multiples of 2^n / r
        f = circuit.generate_periodic_function(4, 4, 4, 7)
        p = circuit.reference_distribution(f)
        for i in range(16):
            expected = 0.25 if i % 4 == 0 else 0.0
            assert p[i] == pytest.approx(expected, abs=1e-12)

    def test_depends_only_on_period(self):
        # swapping the value set permutes F-columns, which the marginal
        # sums over, so the distribution cannot move
        a = circuit.generate_periodic_function(3, 3, 5, 100)
        b = circuit.generate_periodic_function(3, 3, 5, 101)
        assert a.table != b.table
        assert np.allclose(circuit.reference_distribution(a),
                           circuit.reference_distribution(b), atol=1e-14)

    def test_normalized(self):
        for r in range(1, 9):
            f = circuit.generate_periodic_function(3, 3, r, r)
            assert circuit.reference_distribution(f).sum() == pytest.approx(1.0)

    def test_conditional_matches_marginal_for_divisor_periods(self):
        # measuring F first must not change the X statistics when r | 2^n
        f = circuit.generate_periodic_function(3, 3, 2, 5)
        grid = circuit.apply_oracle(circuit.prepare_superposition(3, 3), f)
        grid = circuit.apply_post_unitary(grid, circuit.inverse_qft_matrix(3))
        marginal = circuit.marginal_distribution(grid)
        for j in range(8):
            mass = float(np.sum(np.abs(grid[:, j]) ** 2))
            if mass < 1e-12:
                continue
            conditional = np.abs(grid[:, j]) ** 2 / mass
            assert np.allclose(conditional, marginal, atol=1e-10)


class TestPeriodMarginal:
    def test_matches_staged_pipeline(self):
        # tolerance 1e-14: only the order of the column sums differs
        for n in range(1, 7):
            for r in range(1, 2 ** n + 1):
                f = circuit.generate_periodic_function(n, n, r, (n, r))
                u = linalg.haar_random_unitary(n, (n, r))
                assert np.abs(circuit.period_marginal(u, n, r) - staged_marginal(f, u)).max() < 1e-14

    def test_rejects_bad_shapes_and_periods(self):
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(4)[:3], 2, 2)
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(6), 2, 2)
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(4), 3, 2)
        with pytest.raises(ValueError, match=r"\(8, 8\) does not act on a 2-qubit"):
            circuit.period_marginal(np.eye(8), 2, 2)  # one qubit wider than X
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(4), 2, 5)
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(4), 2, 0)


class TestPeriodMarginalOfAFunction:
    def test_exact_solution_reproduces_reference(self):
        f = circuit.generate_periodic_function(3, 3, 5, 7)
        p = circuit.period_marginal(circuit.inverse_qft_matrix(3), f.n, f.r)
        assert np.allclose(p, circuit.reference_distribution(f), atol=1e-14)

    def test_agrees_with_full_pipeline(self):
        # grouped columns vs the explicit joint-state route
        u = linalg.haar_random_unitary(3, 17)
        f = circuit.generate_periodic_function(3, 3, 6, 17)
        grid = circuit.apply_oracle(circuit.prepare_superposition(3, 3), f)
        grid = circuit.apply_post_unitary(grid, u)
        assert np.allclose(circuit.period_marginal(u, f.n, f.r),
                           circuit.marginal_distribution(grid), atol=1e-14)

    def test_matches_grouped_column_product(self):
        # the psi-matmul formula the column-sum kernel replaced; gate 1e-14
        for r in (1, 3, 5, 8):
            f = circuit.generate_periodic_function(3, 3, r, r)
            u = linalg.haar_random_unitary(3, (0, r))
            psi = np.zeros((8, r))
            psi[np.arange(8), np.arange(8) % r] = 1.0 / math.sqrt(8)
            expected = (np.abs(u @ psi) ** 2).sum(axis=1)
            got = circuit.period_marginal(u, f.n, f.r)
            assert np.abs(got - expected).max() < 1e-14

    def test_rejects_incompatible_dimension(self):
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        with pytest.raises(ValueError):
            circuit.period_marginal(np.eye(6), f.n, f.r)
        with pytest.raises(ValueError, match=r"\(8, 8\) does not act on a 2-qubit"):
            circuit.period_marginal(np.eye(8), f.n, f.r)  # one qubit wider than X


class TestReferenceForPeriod:
    def test_fft_closed_form_matches_staged_reference(self):
        # every period at n=1..8; 4.1e-15 measured, gate 1e-14
        clear_circuit_caches()
        for n in range(1, 9):
            for r in range(1, 2 ** n + 1):
                f = circuit.generate_periodic_function(n, n, r, r)
                got = circuit._reference_table(n)[r]
                assert np.abs(got - circuit.reference_distribution(f)).max() < 1e-14

    def test_cached_and_frozen(self):
        p = circuit._reference_table(4)[3]
        assert not p.flags.writeable
        assert np.shares_memory(p, circuit._reference_table(4))

    def test_table_rows_match_per_period_fft(self):
        # exact (tobytes), every period at n=0..10; from n=7 on the table
        # spans several FFT blocks, so no row's bits may depend on its block
        for n in range(11):
            size = 2 ** n
            clear_circuit_caches()
            table = circuit._reference_table(n)
            assert table.shape == (size + 1, size) and not table.flags.writeable
            for r in range(1, size + 1):
                assert table[r].tobytes() == per_period_reference(n, r).tobytes()

    def test_cold_fill_peak_is_bounded_by_the_table_bytes(self):
        # tracemalloc peak of a cold n=8 fill: 3.0x the table's bytes in
        # blocks of 2^13 entries, 11.1x as one 2^16 block
        clear_circuit_caches()
        tracemalloc.start()
        try:
            table = circuit._reference_table(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table.nbytes


class TestTables:
    def test_clearing_the_module_caches_empties_every_table(self):
        # a cold benchmark round clears the module-level callables that have
        # a cache_clear, so every table must hang off one of them
        tables = (circuit._reference_table, circuit._denominator_table,
                  circuit._divisor_pairs)
        circuit.estimate_period(circuit.period_marginal(circuit.inverse_qft_matrix(4), 4, 3), 4)
        assert all(table.cache_info().currsize for table in tables)
        clear_circuit_caches()
        assert [table.cache_info().currsize for table in tables] == [0, 0, 0]

    def test_denominator_table_matches_fraction_reference(self):
        # exact, every q at n=1..10
        for n in range(1, 11):
            size = 2 ** n
            table = circuit._denominator_table(n)
            assert table.shape == (size, size + 1) and not table.flags.writeable
            for q in range(size):
                assert (np.flatnonzero(table[q]).tolist()
                        == sorted(set(cf_denominators_reference(q, size))))

    def test_divisor_pairs_list_every_divisor_in_order(self):
        for n in range(11):
            size = 2 ** n
            divisors, starts = circuit._divisor_pairs(n)
            assert [group.tolist() for group in np.split(divisors, starts[1:])] == [
                [d for d in range(1, x + 1) if x % d == 0] for x in range(1, size + 1)]


class TestCandidatePeriods:
    def test_sieve_matches_frontier_loop(self):
        # exact: the sieve and the loop must give the same sorted set
        rng = np.random.default_rng(2024)
        for n in range(1, 11):
            size = 2 ** n
            for _ in range(40 if n < 10 else 6):
                k = int(rng.integers(1, size + 1))
                support = sorted(rng.choice(size, size=k, replace=False).tolist())
                assert (circuit._candidate_periods(support, size)
                        == frontier_closure_reference(support, size))


class TestConvergentDenominators:
    def test_matches_fraction_reference(self):
        # every q at every width the CLI allows
        for den in (2 ** n for n in range(1, 11)):
            for q in range(den):
                assert (circuit.convergent_denominators(q, den)
                        == cf_denominators_reference(q, den))

    def test_batched_expansion_matches_fraction_reference(self):
        # exact, all q in [0, 2^n) expanded together at every width the CLI
        # allows; the batched result is depth-major, each denominator with its q
        for n in range(1, 11):
            size = 2 ** n
            refs = [cf_denominators_reference(q, size) for q in range(size)]
            depth_major = [(q, ref[depth]) for depth in range(max(map(len, refs)))
                           for q, ref in enumerate(refs) if depth < len(ref)]
            rows, dens = circuit._convergent_denominators(np.arange(size), size)
            assert list(zip(rows.tolist(), dens.tolist())) == depth_major

    def test_golden_ratio_style_example(self):
        # 13/21 has all-ones continued fraction: Fibonacci denominators
        assert circuit.convergent_denominators(13, 21) == [1, 1, 2, 3, 5, 8, 21]

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            circuit.convergent_denominators(1, 0)


def scalar_estimate_period(p, n, tol=1e-6):
    """estimate_period with one np.dot distance per candidate, in candidate
    order: the loop the stacked scoring pass replaced."""
    p = np.asarray(p, dtype=np.float64)
    size = 2 ** n
    support = np.flatnonzero(p > 1.0 / (2 * size))
    if not support.size:
        raise circuit.EstimationError("no support above the peak threshold")
    best_r, best_d = None, np.inf
    for cand in circuit._candidate_periods(support, size):
        diff = p - circuit._reference_table(n)[cand]
        d = float(np.dot(diff, diff) / size)
        if d < best_d - 1e-15:
            best_r, best_d = cand, d
    if best_d > tol:
        raise circuit.EstimationError(
            f"no candidate period matches (closest r={best_r}, distance {best_d:.3g})"
        )
    return best_r


def outcome(estimate, *args, **kwargs):
    try:
        return estimate(*args, **kwargs)
    except circuit.EstimationError as exc:
        return f"EstimationError: {exc}"


class TestEstimatePeriod:
    def test_matches_scalar_loop_on_every_period(self):
        # exact: same estimate or same EstimationError message, n=1..8
        for n in range(1, 9):
            size = 2 ** n
            theta = np.random.default_rng(n).uniform(0.0, 2 * np.pi, size)
            qft = np.asarray(circuit.inverse_qft_matrix(n))
            matrices = (qft, np.exp(1j * theta)[:, None] * qft,
                        linalg.haar_random_unitary(n, n))
            for m in matrices:
                for r in range(1, size + 1):
                    p = circuit.period_marginal(m, n, r)
                    assert (outcome(circuit.estimate_period, p, n)
                            == outcome(scalar_estimate_period, p, n))

    @pytest.mark.parametrize("shift,expected", [
        (0.0, 2), (8e-15, 2), (-8e-15, 2), (3.2e-14, 4), (-3.2e-14, 2)])
    def test_near_tie_matches_scalar_loop(self, shift, expected):
        # p halfway between the r=2 and r=4 references at n=3: the two
        # distances differ by shift / 16, inside the 1e-15 margin for the
        # middle three cases, so the smaller period keeps the lead there
        ref2 = circuit._reference_table(3)[2]
        ref4 = circuit._reference_table(3)[4]
        p = (ref2 + ref4) / 2
        p[2] += shift
        assert circuit.estimate_period(p, 3, tol=1.0) == expected
        assert scalar_estimate_period(p, 3, tol=1.0) == expected

    def test_exhaustive_small_registers(self):
        for n in (3, 4, 5):
            for r in range(2, 2 ** (n - 1) + 1):
                f = circuit.generate_periodic_function(n, n, r, (n, r))
                p = circuit.reference_distribution(f)
                assert circuit.estimate_period(p, n) == r

    def test_single_outcome_register(self):
        # n=0: one outcome, whose only period is 1
        assert circuit.estimate_period(np.ones(1), 0) == 1

    def test_point_mass_is_period_one(self):
        p = np.zeros(8)
        p[0] = 1.0
        assert circuit.estimate_period(p, 3) == 1

    def test_uniform_is_full_period(self):
        # the 2^n-periodic reference is exactly uniform
        assert circuit.estimate_period(np.full(8, 0.125), 3) == 8

    def test_rejects_unmatched_distribution(self):
        p = np.zeros(8)
        p[0], p[1] = 0.6, 0.4
        with pytest.raises(circuit.EstimationError):
            circuit.estimate_period(p, 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            circuit.estimate_period(np.full(4, 0.25), 3)

    def test_tolerates_small_noise(self):
        f = circuit.generate_periodic_function(5, 5, 6, 2)
        p = circuit.reference_distribution(f)
        rng = np.random.default_rng(0)
        noisy = p + rng.normal(0.0, 1e-5, p.size)
        noisy = np.clip(noisy, 0.0, None)
        noisy /= noisy.sum()
        assert circuit.estimate_period(noisy, 5, tol=1e-3) == 6

    def test_n10_near_full_period_with_cold_cache(self):
        # the pairwise closure and dense references took minutes here
        clear_circuit_caches()
        p = circuit.period_marginal(circuit.inverse_qft_matrix(10), 10, 511)
        start = time.perf_counter()
        assert circuit.estimate_period(p, 10) == 511
        assert time.perf_counter() - start < 20.0

    @given(st.integers(2, 16), st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_property_recovers_any_period_at_n5(self, r, seed):
        f = circuit.generate_periodic_function(5, 5, r, seed)
        p = circuit.reference_distribution(f)
        assert circuit.estimate_period(p, 5) == r
