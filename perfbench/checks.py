"""Independent checkers: X-register distributions and MLP scores without qperiod.

Nothing here imports the package under test. Each `check_*` function
returns a list of failure messages; an empty list means the output passed.

- The reference distribution of the textbook circuit comes from a closed
  form: after the oracle, the X register splits into the residue classes
  x = c (mod r), and the inverse QFT of the indicator of one class is its
  discrete Fourier transform, so P(j) = sum_c |fft(1[x = c mod r])_j / 2^n|^2.
- The achieved distribution of a matrix M sums, per value v of the
  function, the columns of M at the x with f(x) = v, then marginalizes F.
- MLP scores come from a plain numpy forward pass over the net's weights.
"""

import math
import struct

import numpy as np

# acceptance gates the method must meet (CorpusConfig and the train CLI defaults)
LOSS_GATE = 1e-6
DEFECT_GATE = 1e-6
# a Haar draw is unitary up to rounding
HAAR_UNITARITY_TOL = 1e-12
# an estimate's reference must reproduce the measured distribution this closely
ESTIMATE_MATCH_TOL = 1e-12
SCORE_TOL = 1e-12
BCE_CLAMP = 1e-12


def read_umat(path) -> np.ndarray:
    """A .umat file parsed from its documented layout: 24-byte header, complex128 LE."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, rows, cols, _ = struct.unpack_from("<8sIIII", blob, 0)
    if magic != b"UMAT0001" or len(blob) != 24 + 16 * rows * cols:
        raise ValueError(f"{path}: not a UMAT0001 file")
    return np.frombuffer(blob, dtype="<c16", offset=24).reshape(rows, cols)


def residue_table(n: int, r: int) -> np.ndarray:
    """The simplest period-r function table: x -> x mod r."""
    return np.arange(2 ** n) % r


def fresh_table(n: int, r: int, rng) -> np.ndarray:
    """A period-r table on n bits with r distinct random values in [0, 2^n)."""
    values = rng.choice(2 ** n, size=r, replace=False)
    return values[np.arange(2 ** n) % r]


def reference_distribution(n: int, r: int) -> np.ndarray:
    """X distribution of prepare -> oracle(period r) -> inverse QFT, by numpy.fft."""
    size = 2 ** n
    x = np.arange(size)
    indicators = (x[None, :] % r == np.arange(r)[:, None]).astype(np.float64)
    amps = np.fft.fft(indicators, axis=1) / size
    return (amps.real ** 2 + amps.imag ** 2).sum(axis=0)


def achieved_distribution(m, table) -> np.ndarray:
    """X distribution of M applied after the oracle of the function `table`.

    The post-oracle amplitude of (x, f(x)) is 2^{-n/2}; measuring F = v keeps
    the columns of M at the x with f(x) = v, summed.
    """
    m = np.asarray(m, dtype=np.complex128)
    table = np.asarray(table)
    columns = np.stack([m[:, table == v].sum(axis=1) for v in np.unique(table)], axis=1)
    columns /= math.sqrt(table.size)
    return (np.abs(columns) ** 2).sum(axis=1)


def distance(p, q) -> float:
    """Mean squared pointwise difference, the loss's distribution term."""
    d = np.asarray(p) - np.asarray(q)
    return float(d @ d) / d.size


def unitarity_defect(m) -> float:
    """||M^dagger M - I||_F^2 / dim^2."""
    m = np.asarray(m, dtype=np.complex128)
    h = m.conj().T @ m - np.eye(m.shape[0])
    return float((np.abs(h) ** 2).sum()) / m.shape[0] ** 2


def unitarity_error(m) -> float:
    """Largest entry of |M^dagger M - I|."""
    m = np.asarray(m, dtype=np.complex128)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def check_learned(m, functions, label: str = "matrix", gate: float = LOSS_GATE) -> list:
    """A learned matrix: near-unitary, and reproducing the reference within
    `gate` for each function, given as (n, r, table)."""
    failures = []
    defect = unitarity_defect(m)
    if not defect <= DEFECT_GATE:
        failures.append(f"{label}: unitarity defect {defect:.3e} > {DEFECT_GATE:g}")
    for n, r, table in functions:
        d = distance(achieved_distribution(m, table), reference_distribution(n, r))
        if not d <= gate:
            failures.append(f"{label}: period {r} distribution distance {d:.3e} > {gate:g}")
    return failures


def check_haar(m, label: str = "haar") -> list:
    err = unitarity_error(m)
    if not err <= HAAR_UNITARITY_TOL:
        return [f"{label}: |M^dagger M - I| reaches {err:.3e} > {HAAR_UNITARITY_TOL:g}"]
    return []


def check_estimate(estimate: int, r: int, m, n: int, label: str = "estimate") -> list:
    """The printed period must be r, and its reference must match what M produces."""
    failures = []
    if estimate != r:
        failures.append(f"{label}: printed {estimate}, generated r={r}")
    if not 1 <= estimate <= 2 ** n:
        return failures + [f"{label}: {estimate} outside [1, 2^{n}]"]
    d = distance(achieved_distribution(m, residue_table(n, r)),
                 reference_distribution(n, estimate))
    if not d <= ESTIMATE_MATCH_TOL:
        failures.append(f"{label}: reference of r={estimate} is {d:.3e} from the "
                        f"distribution of r={r}")
    return failures


def features(m) -> np.ndarray:
    """Interleaved (re, im) entries, row-major, scaled by the matrix dimension."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).reshape(-1) * m.shape[0]


def mlp_scores(weights, biases, x) -> np.ndarray:
    """ReLU hidden layers, sigmoid output; one score per row of x."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if i < len(weights) - 1 else 1.0 / (1.0 + np.exp(-z))
    return h[:, 0]


def bce(p, y) -> float:
    p = np.clip(np.asarray(p, dtype=np.float64), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def check_scores(weights, biases, matrices, scores, label: str = "scores") -> list:
    """Scores reported by the program must equal a plain forward pass."""
    x = np.array([features(m) for m in matrices])
    expected = mlp_scores(weights, biases, x)
    worst = float(np.abs(expected - np.asarray(scores, dtype=np.float64)).max())
    if not worst <= SCORE_TOL:
        return [f"{label}: scores differ from the plain forward pass by up to {worst:.3e}"]
    return []
