"""Three-stage period-finding circuit: superposition, oracle, post-unitary.

The joint register is X (n qubits) tensor F (m qubits). The stages pass
its amplitudes as a (2^n, 2^m) grid, X index first: grid[i, j] is the
amplitude of |i>_X |j>_F, whose index in a row-major ravel is i * 2^m + j.
All distributions are computed exactly from amplitudes; there is no
shot-noise sampling here.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import distribution_distance

__all__ = [
    "PeriodicFunction",
    "EstimationError",
    "generate_periodic_function",
    "prepare_superposition",
    "apply_oracle",
    "inverse_qft_matrix",
    "apply_post_unitary",
    "marginal_distribution",
    "period_marginal",
    "reference_distribution",
    "estimate_period",
    "convergent_denominators",
]


class EstimationError(ValueError):
    """Raised when no candidate period is consistent with a distribution."""


@dataclass(frozen=True)
class PeriodicFunction:
    """Tabulated f: [0, 2^n) -> [0, 2^m) with f(x) = f(x mod r).

    The first r values are pairwise distinct, so r is the exact period,
    not merely a divisor of one.
    """

    n: int
    m: int
    r: int
    table: tuple

    def __post_init__(self):
        size = 2 ** self.n
        if not 1 <= self.r <= size:
            raise ValueError(f"period {self.r} outside [1, {size}]")
        if len(self.table) != size:
            raise ValueError(f"table has {len(self.table)} entries, expected {size}")
        if any(not 0 <= v < 2 ** self.m for v in self.table):
            raise ValueError("table values outside [0, 2^m)")
        if any(self.table[x] != self.table[x % self.r] for x in range(size)):
            raise ValueError("table is not periodic with the declared period")
        if len(set(self.table[: self.r])) != self.r:
            raise ValueError("values within one period are not pairwise distinct")

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "r": self.r, "table": list(self.table)}


def generate_periodic_function(n: int, m: int, r: int, seed) -> PeriodicFunction:
    """Random periodic function: r distinct values drawn without replacement."""
    if not 1 <= r <= 2 ** n:
        raise ValueError(f"period {r} outside [1, {2 ** n}]")
    if r > 2 ** m:
        raise ValueError(f"cannot pick {r} distinct values from a {2 ** m}-point codomain")
    rng = np.random.default_rng(seed)
    values = rng.choice(2 ** m, size=r, replace=False)
    table = tuple(int(values[x % r]) for x in range(2 ** n))
    return PeriodicFunction(n=n, m=m, r=r, table=table)


def prepare_superposition(n: int, m: int) -> np.ndarray:
    """Uniform superposition on X, F in |0>: amplitude 2^{-n/2} at (i, 0)."""
    if n < 1 or m < 1:
        raise ValueError("register widths must be >= 1")
    grid = np.zeros((2 ** n, 2 ** m), dtype=np.complex128)
    grid[:, 0] = 1.0 / np.sqrt(2 ** n)
    return grid


def apply_oracle(grid: np.ndarray, f: PeriodicFunction) -> np.ndarray:
    """Relocate each (i, 0) amplitude to (i, f(i)).

    Only states supported on F = |0> are accepted; the pipeline never
    applies the oracle anywhere else, so the XOR extension to other F
    basis states is deliberately left out.
    """
    if grid.shape != (2 ** f.n, 2 ** f.m):
        raise ValueError(f"state grid {grid.shape} does not match function "
                         f"({2 ** f.n}, {2 ** f.m})")
    if np.any(grid[:, 1:] != 0):
        raise ValueError("oracle input must have support only on F = |0>")
    out = np.zeros_like(grid)
    idx = np.arange(2 ** f.n)
    out[idx, np.asarray(f.table)] = grid[idx, 0]
    return out


@lru_cache(maxsize=16)
def inverse_qft_matrix(n: int) -> np.ndarray:
    """DFT matrix with entry (j, k) = exp(-2*pi*i*j*k/2^n) / 2^{n/2}.

    Either exponent sign gives the same output probabilities; this one is
    fixed so files containing the matrix are reproducible bit-for-bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 2 ** n
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    mat = np.exp(-2j * np.pi * j * k / size) / np.sqrt(size)
    mat.flags.writeable = False
    return mat


def apply_post_unitary(grid: np.ndarray, m3: np.ndarray) -> np.ndarray:
    """Apply m3 to the X register (tensored with identity on F)."""
    m3 = np.asarray(m3, dtype=np.complex128)
    if m3.shape != (len(grid), len(grid)):
        raise ValueError(f"post matrix shape {m3.shape} does not act on the X rows "
                         f"of a {grid.shape} state grid")
    return m3 @ grid


def marginal_distribution(grid: np.ndarray) -> np.ndarray:
    """P(i) = sum_j |grid[i, j]|^2, the X-register measurement statistics."""
    return (grid.real ** 2 + grid.imag ** 2).sum(axis=1)


def reference_distribution(f: PeriodicFunction) -> np.ndarray:
    """X-distribution of the conventional circuit: prepare, oracle, inverse QFT."""
    grid = apply_oracle(prepare_superposition(f.n, f.m), f)
    return marginal_distribution(apply_post_unitary(grid, inverse_qft_matrix(f.n)))


def period_marginal(m, n: int, r: int) -> np.ndarray:
    """X-register distribution of m applied after the oracle of a period-r function.

    The oracle leaves amplitude 2^{-n/2} at (x, f(x)); up to a relabeling
    of F, which the marginal sums over, F-column c holds the residue class
    x = c mod r. Column c after m is therefore 2^{-n/2} times the sum of
    m's columns in that class, formed here by a strided reshape in O(4^n)
    rather than the O(8^n) product with the joint state. m is 2^n x 2^n.
    """
    m = np.asarray(m, dtype=np.complex128)
    size = 2 ** n
    if m.shape != (size, size):
        raise ValueError(f"matrix shape {m.shape} does not act on a {n}-qubit register")
    if not 1 <= r <= size:
        raise ValueError(f"period {r} outside [1, {size}]")
    count, longer = divmod(size, r)
    a = m[:, :count * r].reshape(size, count, r).sum(axis=1)
    a[:, :longer] += m[:, count * r:]
    return marginal_distribution(a) / size


# The reference table is filled in FFT blocks of at most this many entries.
# The n=8 table is 0.5 MB; filled as one block (2^16) its temporaries took
# the tracemalloc peak to 5.8 MB, and in blocks of 2^13 entries to 1.6 MB.
_FILL_BLOCK = 2 ** 13


@lru_cache(maxsize=None)
def _reference_table(n: int) -> np.ndarray:
    """Read-only (2^n + 1, 2^n) table whose row r is the reference
    distribution of period r (row 0 is zeros), filled whole on first use.

    After the oracle, F-column c holds 2^{-n/2} on the comb c, c + r, ...
    of K_c = ceil((2^n - c) / r) points. The inverse QFT maps it to
    e^{-2 pi i j c / 2^n} fft(comb of K_c points from 0)[j] / 2^n, whose
    phase the marginal drops, so a column's power depends only on K_c:
    2^n mod r columns have floor(2^n / r) + 1 points, the rest floor(2^n / r).
    The combs of all periods go through batched FFTs, whose rows have the
    bits of one FFT each.
    """
    size = 2 ** n
    table = np.zeros((size + 1, size))
    block = max(1, _FILL_BLOCK // size)
    for start in range(1, size + 1, block):
        r = np.arange(start, min(start + block, size + 1))
        count, longer = np.divmod(size, r)
        combs = np.zeros((2, r.size, size))
        for i, (step, points) in enumerate(zip(r.tolist(), count.tolist())):
            combs[0, i, :points * step:step] = 1.0  # floor(2^n / r) points
            combs[1, i, ::step] = 1.0  # ceil(2^n / r) points
        spectra = np.fft.fft(combs)
        power = spectra.real ** 2 + spectra.imag ** 2
        table[r] = ((r - longer)[:, None] * power[0] + longer[:, None] * power[1]) / size ** 2
    table.flags.writeable = False
    return table


def _convergent_denominators(q, den: int) -> tuple:
    """Convergent denominators of q/den for every q of an array, all depths,
    each with the index into q it belongs to: (rows, denominators).

    One divmod pass per depth expands every fraction still open; a row whose
    remainder is 0 has ended and drops out. The result is depth-major, so
    for a single q it lists the denominators in convergent order.
    """
    a = np.array(q, dtype=np.int64, ndmin=1)
    b = np.full_like(a, den)
    km1, km2 = np.zeros_like(a), np.ones_like(a)
    row = np.arange(a.size)
    rows, dens = [], []
    while a.size:
        ak, rem = np.divmod(a, b)
        k = ak * km1 + km2
        rows.append(row)
        dens.append(k)
        live = rem != 0
        a, b, km1, km2, row = b[live], rem[live], k[live], km1[live], row[live]
    return np.concatenate(rows), np.concatenate(dens)


def convergent_denominators(q: int, den: int) -> list:
    """Denominators of the continued-fraction convergents of q/den (int64)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    return _convergent_denominators(q, den)[1].tolist()


@lru_cache(maxsize=None)
def _denominator_table(n: int) -> np.ndarray:
    """Read-only (2^n, 2^n + 1) booleans: [q, d] is set when d is a convergent
    denominator of q/2^n. Column 1 is set in every row (the first convergent)."""
    size = 2 ** n
    table = np.zeros((size, size + 1), dtype=bool)
    table[_convergent_denominators(np.arange(size), size)] = True
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _divisor_pairs(n: int) -> tuple:
    """(divisors, starts): every divisor d of every x = 1..2^n, grouped by x
    in ascending order; the group of x starts at starts[x - 1]."""
    size = 2 ** n
    d = np.arange(1, size + 1)
    counts = size // d
    divisors = np.repeat(d, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # each d's first pair
    multiples = divisors * (np.arange(divisors.size) - first + 1)
    divisors = divisors[np.argsort(multiples, kind="stable")]
    starts = np.cumsum(np.bincount(multiples)[:-1])
    for arr in (divisors, starts):
        arr.flags.writeable = False
    return divisors, starts


def _candidate_periods(support, size: int) -> list:
    """Convergent denominators of every peak, closed under lcm, capped at size.

    An x <= size lies in the closure exactly when the lcm of the base
    denominators dividing x equals x: one lcm reduction per x over its
    divisors, the divisors outside the base counting as 1.
    """
    n = size.bit_length() - 1
    base = _denominator_table(n)[support].any(axis=0)
    divisors, starts = _divisor_pairs(n)
    lcms = np.lcm.reduceat(np.where(base[divisors], divisors, 1), starts)
    return (np.flatnonzero(lcms == np.arange(1, size + 1)) + 1).tolist()


def estimate_period(p, n: int, tol: float = 1e-6) -> int:
    """Recover the period behind an X-register distribution.

    Peaks above 1/(2*2^n) are kept (true peaks carry ~1/r >= 1/2^{n-1};
    spectral leakage stays below half the uniform level). Candidate
    periods are the continued-fraction convergent denominators of
    q/2^n over all peaks q, closed under least common multiples up to
    2^n. Three tables per n, each made on first use, turn this into a few
    array passes: the convergent denominators of every q/2^n (1 MB at
    n=10), read as one any() over the peak rows; the divisor pairs of every
    x <= 2^n, over which one lcm reduction finds the closure; and the
    reference distribution of every period (8 MB at n=10), filled whole on
    first use. The candidates' references are gathered from that table
    and scored in one stacked distribution_distance pass; the winner is the
    nearest to p, and distances within 1e-15 of each other break toward the
    smaller period.
    """
    p = np.asarray(p, dtype=np.float64)
    size = 2 ** n
    if p.shape != (size,):
        raise ValueError(f"distribution length {p.shape} does not match n={n}")
    support = np.flatnonzero(p > 1.0 / (2 * size))
    if not support.size:
        raise EstimationError("no support above the peak threshold")
    candidates = _candidate_periods(support, size)
    index = np.array(candidates)
    distances = distribution_distance(p, _reference_table(n)[index])
    best_r, best_d = None, np.inf
    for cand, d in zip(candidates, distances.tolist()):
        if d < best_d - 1e-15:
            best_r, best_d = cand, d
    if best_d > tol:
        raise EstimationError(
            f"no candidate period matches (closest r={best_r}, distance {best_d:.3g})"
        )
    return best_r
