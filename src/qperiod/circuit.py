"""Three-stage period-finding circuit: superposition, oracle, post-unitary.

The joint register is X (n qubits) tensor F (m qubits); basis index
i * 2^m + j encodes (i, j). All distributions are computed exactly from
amplitudes; there is no shot-noise sampling here.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import distribution_distance

__all__ = [
    "PeriodicFunction",
    "JointState",
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

    def __call__(self, x: int) -> int:
        return self.table[x]

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "r": self.r, "table": list(self.table)}


@dataclass(frozen=True)
class JointState:
    """State vector on X tensor F with the (i, j) = i * 2^m + j convention."""

    n: int
    m: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** (self.n + self.m)

    def grid(self) -> np.ndarray:
        """View of the amplitudes as a (2^n, 2^m) array, X index first."""
        return self.amps.reshape(2 ** self.n, 2 ** self.m)


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


def prepare_superposition(n: int, m: int) -> JointState:
    """Uniform superposition on X, F in |0>: amplitude 2^{-n/2} at (i, 0)."""
    if n < 1 or m < 1:
        raise ValueError("register widths must be >= 1")
    grid = np.zeros((2 ** n, 2 ** m), dtype=np.complex128)
    grid[:, 0] = 1.0 / np.sqrt(2 ** n)
    return JointState(n=n, m=m, amps=grid.ravel())


def apply_oracle(state: JointState, f: PeriodicFunction) -> JointState:
    """Relocate each (i, 0) amplitude to (i, f(i)).

    Only states supported on F = |0> are accepted; the pipeline never
    applies the oracle anywhere else, so the XOR extension to other F
    basis states is deliberately left out.
    """
    if (state.n, state.m) != (f.n, f.m):
        raise ValueError(
            f"state registers ({state.n}, {state.m}) do not match function ({f.n}, {f.m})"
        )
    grid = state.grid()
    if np.any(grid[:, 1:] != 0):
        raise ValueError("oracle input must have support only on F = |0>")
    out = np.zeros_like(grid)
    idx = np.arange(2 ** f.n)
    out[idx, np.asarray(f.table)] = grid[idx, 0]
    return JointState(n=state.n, m=state.m, amps=out.ravel())


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


def apply_post_unitary(state: JointState, m3: np.ndarray) -> JointState:
    """Apply m3 to the X register (tensored with identity on F)."""
    m3 = np.asarray(m3, dtype=np.complex128)
    if m3.shape != (2 ** state.n, 2 ** state.n):
        raise ValueError(
            f"post matrix shape {m3.shape} does not act on a {state.n}-qubit register"
        )
    return JointState(n=state.n, m=state.m, amps=(m3 @ state.grid()).ravel())


def marginal_distribution(state: JointState) -> np.ndarray:
    """P(i) = sum_j |amp(i, j)|^2, the X-register measurement statistics."""
    grid = state.grid()
    return (grid.real ** 2 + grid.imag ** 2).sum(axis=1)


def reference_distribution(f: PeriodicFunction) -> np.ndarray:
    """X-distribution of the conventional circuit: prepare, oracle, inverse QFT."""
    state = prepare_superposition(f.n, f.m)
    state = apply_oracle(state, f)
    state = apply_post_unitary(state, inverse_qft_matrix(f.n))
    return marginal_distribution(state)


def period_marginal(m, r: int, stride: int = 1) -> np.ndarray:
    """X-register distribution of m applied after the oracle of a period-r function.

    The oracle leaves amplitude 2^{-n/2} at (x, f(x)); up to a relabeling
    of F, which the marginal sums over, F-column c holds the residue class
    x = c mod r. Column c after m is therefore 2^{-n/2} times the sum of
    m's columns in that class, formed here by a strided reshape in O(4^n)
    rather than the O(8^n) product with the joint state. With ancillas,
    stride = 2^ancilla: they start in |0>, so only every stride-th column
    of m acts, and each block of stride rows is one X outcome.
    """
    m = np.asarray(m, dtype=np.complex128)
    dim = m.shape[0]
    if m.shape != (dim, dim) or stride < 1 or dim % stride:
        raise ValueError(f"matrix shape {m.shape} does not split into stride {stride}")
    size = dim // stride
    if not 1 <= r <= size:
        raise ValueError(f"period {r} outside [1, {size}]")
    cols = m[:, ::stride]
    count, longer = divmod(size, r)
    a = cols[:, :count * r].reshape(dim, count, r).sum(axis=1)
    a[:, :longer] += cols[:, count * r:]
    rowp = (a.real ** 2 + a.imag ** 2).sum(axis=1) / size
    return rowp.reshape(size, stride).sum(axis=1)


def _comb_power(size: int, r: int, points: int) -> np.ndarray:
    """|fft|^2 of `points` ones spaced r apart from 0 in a length-size array."""
    comb = np.zeros(size)
    comb[:points * r:r] = 1.0
    spectrum = np.fft.fft(comb)
    return spectrum.real ** 2 + spectrum.imag ** 2


@lru_cache(maxsize=None)
def _reference_for_period(n: int, r: int) -> np.ndarray:
    # After the oracle, F-column c holds 2^{-n/2} on the comb c, c + r, ...
    # of K_c = ceil((2^n - c) / r) points. The inverse QFT maps it to
    # e^{-2 pi i j c / 2^n} fft(comb of K_c points from 0)[j] / 2^n, whose
    # phase the marginal drops, so a column's power depends only on K_c:
    # 2^n mod r columns have floor(2^n / r) + 1 points, the rest floor(2^n / r).
    size = 2 ** n
    count, longer = divmod(size, r)
    p = (r - longer) * _comb_power(size, r, count)
    if longer:
        p += longer * _comb_power(size, r, count + 1)
    p /= size ** 2
    p.flags.writeable = False
    return p


def _convergent_denominators(q, den: int) -> np.ndarray:
    """Convergent denominators of q/den for every q of an array, all depths.

    One divmod pass per depth expands every fraction still open; a row whose
    remainder is 0 has ended and drops out. The result is depth-major, so
    for a single q it lists the denominators in convergent order.
    """
    a = np.array(q, dtype=np.int64, ndmin=1)
    b = np.full_like(a, den)
    km1, km2 = np.zeros_like(a), np.ones_like(a)
    dens = []
    while a.size:
        ak, rem = np.divmod(a, b)
        k = ak * km1 + km2
        dens.append(k)
        live = rem != 0
        a, b, km1, km2 = b[live], rem[live], k[live], km1[live]
    return np.concatenate(dens)


def convergent_denominators(q: int, den: int) -> list:
    """Denominators of the continued-fraction convergents of q/den (int64)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    return _convergent_denominators(q, den).tolist()


def _candidate_periods(support, size: int) -> list:
    """Convergent denominators of every peak, closed under lcm, capped at size."""
    lcms = np.ones(size + 1, dtype=np.int64)
    base = np.unique(np.append(_convergent_denominators(support, size), 1))
    for d in base[base <= size].tolist():
        lcms[d::d] = np.lcm(lcms[d::d], d)
    return np.flatnonzero(lcms == np.arange(size + 1)).tolist()


def estimate_period(p, n: int, tol: float = 1e-6) -> int:
    """Recover the period behind an X-register distribution.

    Peaks above 1/(2*2^n) are kept (true peaks carry ~1/r >= 1/2^{n-1};
    spectral leakage stays below half the uniform level). Candidate
    periods are the continued-fraction convergent denominators of
    q/2^n over all peaks q, closed under least common multiples up to
    2^n. The continued fractions of all peaks are expanded together, one
    numpy divmod pass per depth. An x <= 2^n lies in the closure exactly
    when the lcm of the base denominators dividing x equals x, so one sieve
    over the multiples of each base denominator finds the set. The cached
    exact references of all candidates are gathered into one array and
    scored in one stacked distribution_distance pass; the winner is the
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
    distances = distribution_distance(
        p, np.array([_reference_for_period(n, cand) for cand in candidates]))
    best_r, best_d = None, np.inf
    for cand, d in zip(candidates, distances.tolist()):
        if d < best_d - 1e-15:
            best_r, best_d = cand, d
    if best_d > tol:
        raise EstimationError(
            f"no candidate period matches (closest r={best_r}, distance {best_d:.3g})"
        )
    return best_r
