"""Dense complex matrix helpers: unitarity defect, Haar sampling, eigenphases.

Matrices are numpy ``complex128`` arrays in row-major layout. Everything
here is double precision; the training targets (losses near 1e-8) leave no
headroom for float32.
"""

import numpy as np

__all__ = [
    "unitarity_defect",
    "haar_random_unitary",
    "eigenphases",
]


def _as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def unitarity_defect(m) -> float:
    """Mean squared deviation of M†M from the identity.

    Returns (1/dim^2) * sum_ij |M†M - I|^2_ij, which is zero exactly when
    m is unitary. Used both as the training penalty (scaled by k) and as
    the near-unitarity gate for spectral analysis.
    """
    m = _as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity defect needs a square matrix, got {m.shape}")
    h = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.vdot(h, h).real) / m.shape[0] ** 2


def haar_random_unitary(n_qubits: int, seed) -> np.ndarray:
    """Haar-distributed unitary on n_qubits via QR of a complex Gaussian.

    The R-diagonal phase correction makes the distribution exactly Haar
    rather than merely unitary. Deterministic given seed.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2 ** n_qubits
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def eigenphases(u) -> np.ndarray:
    """Arguments of all eigenvalues of a (near-)unitary matrix, in (-pi, pi].

    Eigenphases of a matrix far from unitary are not meaningful for the
    spectral statistics here, so inputs with defect >= 1e-6 are rejected.
    """
    u = _as_complex_matrix(u)
    defect = unitarity_defect(u)
    if defect >= 1e-6:
        raise ValueError(f"matrix is not near-unitary (defect {defect:.3e} >= 1e-6)")
    lam = np.linalg.eigvals(u)
    phases = np.angle(lam)
    # arctan2 maps -1 - 0j to -pi; fold onto the (-pi, pi] convention
    return np.where(phases == -np.pi, np.pi, phases)
