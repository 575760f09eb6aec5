"""Echo, distance, and spectral diagnostics for learned unitaries."""

from dataclasses import dataclass

import numpy as np

from .linalg import _as_complex_matrix, eigenphases

__all__ = [
    "Histogram",
    "loschmidt_echo",
    "distribution_distance",
    "eigenphase_histogram",
    "echo_report",
]

N_PHASE_BINS = 20


@dataclass(frozen=True)
class Histogram:
    """20-bin histogram over [-pi, pi]; counts sum to the number of phases."""

    bin_edges: np.ndarray
    counts: np.ndarray


def loschmidt_echo(u1, u2, psi) -> float:
    """L = |<psi| u1 dagger u2 |psi>|^2, the overlap of the two evolutions."""
    u1 = _as_complex_matrix(u1)
    u2 = _as_complex_matrix(u2)
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    if not (u1.shape == u2.shape == (psi.size, psi.size)):
        raise ValueError(
            f"dimension mismatch: u1 {u1.shape}, u2 {u2.shape}, psi {psi.shape}"
        )
    return float(np.abs(np.vdot(u1 @ psi, u2 @ psi)) ** 2)


def distribution_distance(p, q):
    """Mean squared pointwise difference: sum((p - q)^2) / len(p).

    q is one distribution (a float comes back) or a stack of k of shape
    (k, len(p)) (an array of the k distances comes back). Each row's sum
    is one (1, N) @ (N, 1) product, whose bits equal np.dot(d, d)'s, so a
    distance does not depend on how many were stacked with it.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim not in (1, 2) or q.shape[-1:] != p.shape:
        raise ValueError(f"distributions must be equal-length vectors, got {p.shape} vs {q.shape}")
    d = np.atleast_2d(p - q)
    dist = (d[:, None, :] @ d[:, :, None]).ravel() / p.size
    return float(dist[0]) if q.ndim == 1 else dist


def eigenphase_histogram(*matrices) -> Histogram:
    """Bin the eigenphases of one or more near-unitary matrices, pooled, into
    20 bins over [-pi, pi]: the counts are the sums of each matrix's counts.

    Bins are half-open [lo, hi) except the last, which is closed at +pi so
    a phase of exactly pi is counted.
    """
    if not matrices:
        raise ValueError("eigenphase_histogram needs at least one matrix")
    phases = np.concatenate([eigenphases(u) for u in matrices])
    counts, edges = np.histogram(phases, bins=N_PHASE_BINS, range=(-np.pi, np.pi))
    return Histogram(bin_edges=edges, counts=counts)


def echo_report(subject, reference) -> tuple[float, float]:
    """(echo on |0...0>, echo on the uniform state H^n |0...0>), the probes as
    wide as subject; loschmidt_echo raises ValueError unless both matrices are
    that wide. Near-unitary subjects give echoes in [0, 1.01]: the slack above
    1 is real (approximately unitary matrices overshoot slightly) and is
    reported, not clipped."""
    dim = len(subject)
    zero = np.zeros(dim, dtype=np.complex128)
    zero[0] = 1.0
    uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return (loschmidt_echo(subject, reference, zero),
            loschmidt_echo(subject, reference, uniform))
