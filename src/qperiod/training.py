"""Loss, analytic gradient, ADAM, and the stochastic training loop for M3.

The candidate matrix is parameterized by 2 * dim^2 reals: real and
imaginary parts interleaved per entry, row-major. The loss is

    (1/2^n) sum_i [P_a(i) - P_d(i)]^2  +  (k/dim^2) sum_ij |M†M - I|^2_ij

where P_a is the X-register distribution the candidate produces and
dim = 2^n is the matrix dimension: M3 acts on the X register alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import distribution_distance
from .circuit import (
    PeriodicFunction,
    _reference_table,
    generate_periodic_function,
    period_marginal,
)
from .linalg import unitarity_defect

__all__ = [
    "LossConfig",
    "AdamConfig",
    "Adam",
    "TrainingDataset",
    "DivergenceError",
    "target_distribution",
    "loss",
    "loss_gradient",
    "initialize_parameters",
    "dataset_for_periods",
    "build_training_dataset",
    "train",
    "params_to_matrix",
    "matrix_to_params",
]

TARGET_KINDS = ("qft-reference", "single-peak", "step", "gaussian")

# abort threshold: optimizer has left the basin of any useful minimum
DIVERGENCE_LIMIT = 1e6

# elements per slice of an in-place ADAM update: a slice of w, m, v, the
# gradient and two scratch rows (3 MB) stays in cache across the update's
# passes
_ADAM_SLICE = 65_536


class DivergenceError(RuntimeError):
    """Training loss became non-finite or exceeded the divergence limit.

    Carries the parameters and history at the point of abort so callers
    can still persist diagnostics.
    """

    def __init__(self, message, w=None, history=None):
        super().__init__(message)
        self.w = w
        self.history = history if history is not None else []


def _require_finite_positive(name: str, x) -> None:
    """ValueError naming the field unless x is finite and > 0 (NaN passes a
    plain `<= 0` check)."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {x!r}")


@dataclass(frozen=True)
class LossConfig:
    k: float = 1.0
    target_kind: str = "qft-reference"
    gaussian_sigma: float = 1.0

    def __post_init__(self):
        _require_finite_positive("k", self.k)
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        _require_finite_positive("gaussian_sigma", self.gaussian_sigma)


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.001
    # class constants, not fields: no caller varies them
    beta1 = 0.9
    beta2 = 0.99
    epsilon = 1e-8

    def __post_init__(self):
        _require_finite_positive("alpha", self.alpha)


@dataclass(frozen=True)
class TrainingDataset:
    """Periodic functions with their precomputed target distributions."""

    functions: list
    targets: list

    def __post_init__(self):
        if not self.functions:
            raise ValueError("dataset must be nonempty")
        if len(self.functions) != len(self.targets):
            raise ValueError("functions and targets must pair up")
        n, m = self.functions[0].n, self.functions[0].m
        if any((f.n, f.m) != (n, m) for f in self.functions):
            raise ValueError("all dataset functions must share register widths")

    @property
    def n(self) -> int:
        return self.functions[0].n

    def __len__(self) -> int:
        return len(self.functions)


def params_to_matrix(w: np.ndarray, dim: int) -> np.ndarray:
    """Reinterpret the interleaved real vector as a dim x dim complex matrix."""
    if w.size != 2 * dim * dim:
        raise ValueError(f"parameter vector length {w.size} does not fit dim {dim}")
    return w.view(np.complex128).reshape(dim, dim)


def matrix_to_params(m3: np.ndarray) -> np.ndarray:
    """Flatten a complex matrix to the interleaved real parameter layout."""
    return np.ascontiguousarray(m3, dtype=np.complex128).ravel().view(np.float64).copy()


def target_distribution(kind: str, f: PeriodicFunction,
                        gaussian_sigma: float = 1.0) -> np.ndarray:
    """Desired X-register distribution for a training sample; every kind reads
    only f.n and f.r. "qft-reference" is row r of the cached, read-only FFT closed
    form of the conventional circuit's distribution (circuit._reference_table)."""
    size = 2 ** f.n
    if kind == "qft-reference":
        return _reference_table(f.n)[f.r]
    if kind == "single-peak":
        if f.r >= size:
            raise ValueError(f"single-peak target needs r < 2^n, got r={f.r}")
        p = np.zeros(size)
        p[f.r] = 1.0
        return p
    if kind == "step":
        if f.r >= size:
            raise ValueError(f"step target needs r < 2^n, got r={f.r}")
        p = np.zeros(size)
        p[f.r:] = 1.0 / (size - f.r)
        return p
    if kind == "gaussian":
        _require_finite_positive("gaussian_sigma", gaussian_sigma)
        i = np.arange(size)
        p = np.exp(-((i - f.r) ** 2) / (2.0 * gaussian_sigma ** 2))
        return p / p.sum()
    raise ValueError(f"unknown target kind {kind!r}")


def _run_buffers(m3: np.ndarray) -> tuple:
    """The arrays all samples of a run share: m3 itself, then conj(m3),
    M†M - I, the gathered data term and the gradient matrix, each C-ordered
    dim x dim."""
    conj, h, t_cols, grad = (np.empty(m3.shape, dtype=np.complex128) for _ in range(4))
    return m3, conj, h, t_cols, grad


def _sample_step(f: PeriodicFunction, p_d, k: float, run: tuple):
    """One training step for sample (f, p_d) on the run's buffers
    (_run_buffers): a closure with no arguments that returns the loss value
    and leaves the gradient matrix in run[-1], overwritten by the next call.
    Every buffer, view and constant the step needs is made here, once, and
    m3 and p_d are checked here: a 2^n x 2^n matrix and a 2^n-entry target.

    psi holds the post-oracle amplitudes grouped by function value: row x
    has its one nonzero, 1/sqrt(2^n), in column x mod r (first-occurrence
    order; the marginal over F only ever sees column magnitudes, so the
    value labels drop out). The gradient's product with psi^T is a gather
    of columns times psi's one nonzero value, exact because each row of
    psi has a single nonzero.

    The values are bit for bit those of the allocating formula, which
    builds every intermediate anew, M†M - I through an identity, and the
    data term through the product with psi^T. The data term is scaled once,
    by 1/sqrt(2^n) * 4/2^n: 4/2^n is a power of two, so barring overflow
    and subnormals the one product rounds as the formula's two do. That
    np.dot has the bits of @ on these operands is a measured property of
    the bundled OpenBLAS, which the suite checks at one BLAS thread and at
    the default count.
    """
    m3, conj, h, t_cols, grad = run
    size = 2 ** f.n
    if m3.shape != (size, size):
        raise ValueError(f"matrix shape {m3.shape} does not act on a "
                         f"{f.n}-qubit register")
    p_d = np.asarray(p_d, dtype=np.float64)
    if p_d.shape != (size,):
        raise ValueError(f"target shape {p_d.shape} does not match 2^n = {size} outcomes")
    r = f.r
    dim2 = size ** 2
    # 0-d complex128 constants, which ufuncs take with less overhead than
    # Python floats (the same (x, +0.0) values the floats are cast to)
    one = np.array(1.0 + 0j)
    scale = 1.0 / np.sqrt(size)  # psi's nonzero value
    pen_coef = np.array(complex(4.0 * k / dim2))
    data_coef = np.array(complex(scale * (4.0 / size)))
    cols = np.arange(size) % r
    psi = np.zeros((size, r), dtype=np.complex128)
    psi[np.arange(size), cols] = scale
    a = np.empty((size, r), dtype=np.complex128)
    a_flat = a.reshape(-1).view(np.float64)  # re, im of each entry in turn
    sq = np.empty(2 * size * r)
    sq_re, sq_im = sq[0::2], sq[1::2]
    mag = np.empty((size, r))
    mag_flat = mag.reshape(-1)
    p_a = np.empty(size)  # the X-register marginal
    e = np.empty(size)
    e_rows = e[:, None]  # one value per row of a
    t = np.empty((size, r), dtype=np.complex128)  # data term per column of a
    gather = t.take  # the bound method skips np.take's Python wrapper
    conj_t = conj.T
    h_diag = h.reshape(-1)[::size + 1]

    # dispatch, not arithmetic, is the step's cost: the functions are bound
    # to locals and take their output positionally, not as a keyword
    dot, multiply, add, subtract, conjugate = (np.dot, np.multiply, np.add,
                                               np.subtract, np.conjugate)

    def step() -> float:
        # on these contiguous operands np.dot makes the same zgemm (or, for
        # r = 1, gemv) call as @, with less dispatch
        dot(m3, psi, a)
        multiply(a_flat, a_flat, sq)
        add(sq_re, sq_im, mag_flat)
        np.add.reduce(mag, axis=1, out=p_a)
        subtract(p_a, p_d, e)
        dist = float(e.dot(e)) / size
        conjugate(m3, conj)
        dot(conj_t, m3, h)
        subtract(h_diag, one, h_diag)
        pen = k * float(np.vdot(h, h).real) / dim2
        dot(m3, h, grad)
        multiply(pen_coef, grad, grad)
        multiply(e_rows, a, t)
        multiply(data_coef, t, t)
        gather(cols, axis=1, out=t_cols, mode="clip")
        add(grad, t_cols, grad)
        return dist + pen

    return step


def loss(m3, f: PeriodicFunction, p_d, k: float) -> float:
    """Distribution mismatch plus unitarity penalty for one sample: the
    distribution_distance from p_d of the X-register distribution m3 produces
    for f (period_marginal) plus k times the unitarity_defect. Agrees with
    train's value (_sample_step) within 1e-15."""
    return distribution_distance(period_marginal(m3, f.n, f.r), p_d) + k * unitarity_defect(m3)


def loss_gradient(m3, f: PeriodicFunction, p_d, k: float) -> np.ndarray:
    """Gradient of loss with respect to the 2 * dim^2 real parameters."""
    run = _run_buffers(np.asarray(m3, dtype=np.complex128))
    _sample_step(f, p_d, k, run)()
    return run[-1].reshape(-1).view(np.float64)


class Adam:
    """ADAM on the float64 vector w, updated in place; the moments m and v
    start at zero. Each step(g) makes, exactly in this operation order,

    t <- t+1; m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    mhat <- m/(1-b1^t); vhat <- v/(1-b2^t); w <- w - alpha*mhat/(sqrt(vhat)+eps),

    one cache-sized slice at a time into two scratch rows. Every pass is
    element-wise and correctly rounded, so the bits do not depend on the
    slicing: the arrays hold exactly what the allocating formula would return.
    In float64, 1-b1^t is exactly 1.0 from t = 356 on and 1-b2^t from
    t = 3,725 on; a division by exactly 1.0 returns its operand, so from
    there the step skips it (mhat is m, vhat is v) and the bits stay the same.
    """

    def __init__(self, w: np.ndarray, cfg: AdamConfig):
        if w.dtype != np.float64 or w.ndim != 1:
            raise ValueError(f"ADAM updates a float64 vector, got {w.dtype} of shape {w.shape}")
        self.w, self.m, self.v, self.t, self.cfg = w, np.zeros(w.size), np.zeros(w.size), 0, cfg
        # the step's constants as 0-d arrays, which ufuncs take with less
        # overhead than Python floats (same float64 values)
        self._consts = [np.array(x) for x in (cfg.beta1, 1 - cfg.beta1, cfg.beta2,
                                              1 - cfg.beta2, cfg.epsilon, cfg.alpha)]
        scratch = np.empty((2, min(w.size, _ADAM_SLICE)))
        self._slices = []
        for start in range(0, w.size, _ADAM_SLICE):
            # a vector of one slice takes the gradient whole (part None)
            part = slice(start, start + _ADAM_SLICE) if w.size > _ADAM_SLICE else None
            rows = [x if part is None else x[part] for x in (self.w, self.m, self.v)]
            self._slices.append((part, *rows, *scratch[:, :rows[0].size]))

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.w.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match "
                             f"parameters {self.w.shape}")
        self.t += 1
        b1, one_b1, b2, one_b2, eps, alpha = self._consts
        c1, c2 = 1 - self.cfg.beta1 ** self.t, 1 - self.cfg.beta2 ** self.t
        # as in _sample_step: locals, and each output given positionally
        multiply, add, subtract, divide, sqrt = (np.multiply, np.add, np.subtract,
                                                 np.divide, np.sqrt)
        for part, w, m, v, x, y in self._slices:
            g = grad if part is None else grad[part]
            multiply(m, b1, m)
            multiply(g, one_b1, x)
            add(m, x, m)
            multiply(g, g, x)
            multiply(x, one_b2, x)
            multiply(v, b2, v)
            add(v, x, v)
            if c1 == 1.0:
                multiply(m, alpha, y)
            else:
                divide(m, c1, y)
                multiply(y, alpha, y)
            if c2 == 1.0:
                sqrt(v, x)
            else:
                divide(v, c2, x)
                sqrt(x, x)
            add(x, eps, x)
            divide(y, x, y)
            subtract(w, y, w)


def initialize_parameters(n: int, seed) -> np.ndarray:
    """Gaussian start: i.i.d. N(0, 1/2^n) per real component.

    Standard deviation 2^{-n/2} puts rows at roughly unit norm, i.e. near
    the scale of a unitary, so the penalty term starts in a useful regime.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 ** n
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(dim), 2 * dim * dim)


def dataset_for_periods(n: int, m: int, periods, seed,
                        loss_cfg: LossConfig = LossConfig()) -> TrainingDataset:
    """One random function per listed period, with its target distribution.

    Function i draws its values from the i-th child of SeedSequence(seed).
    """
    seeds = np.random.SeedSequence(seed).spawn(len(periods))
    functions = [generate_periodic_function(n, m, r, s) for r, s in zip(periods, seeds)]
    targets = [target_distribution(loss_cfg.target_kind, f,
                                   gaussian_sigma=loss_cfg.gaussian_sigma)
               for f in functions]
    return TrainingDataset(functions=functions, targets=targets)


def build_training_dataset(n: int, m: int, size: int, seed,
                           loss_cfg: LossConfig = LossConfig()) -> TrainingDataset:
    """Dataset of `size` functions whose periods cycle 1..2^{n-1}, so that
    every small period (always including r = 1) is represented, which random
    draws at desk scale frequently miss; the function values are random."""
    periods = [1 + i % 2 ** (n - 1) for i in range(size)]
    return dataset_for_periods(n, m, periods, seed, loss_cfg)


# a diverging run overflows to inf and nan; the divergence check reports it
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: TrainingDataset, loss_cfg: LossConfig, adam_cfg: AdamConfig,
          epochs: int, seed, *, init: np.ndarray = None, stop_below: float = None):
    """Per-sample stochastic ADAM over the dataset in fixed order.

    Returns (m3, loss_history) where loss_history[e] is the mean of the
    per-sample losses measured before each update in epoch e. `init`, a
    parameter vector, overrides the random start and is copied, never
    written; `stop_below` ends training early once the epoch loss reaches
    the given level.

    Each sample's step is built once (_sample_step): every buffer, view and
    constant it needs is made before the first epoch, so a step makes
    only its arithmetic, into those buffers, and ADAM updates the
    parameters in place. The results are bit for bit those of rebuilding
    every intermediate and the optimizer state at each step.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    n = dataset.n
    dim = 2 ** n
    w = initialize_parameters(n, seed) if init is None else np.array(init, dtype=np.float64)
    if w.size != 2 * dim * dim:
        raise ValueError(f"init vector size {w.size} does not match n = {n}")
    opt = Adam(w, adam_cfg)
    m3 = params_to_matrix(opt.w, dim)
    run = _run_buffers(m3)
    steps = [_sample_step(f, p_d, loss_cfg.k, run)
             for f, p_d in zip(dataset.functions, dataset.targets)]
    grad = run[-1].reshape(-1).view(np.float64)  # the shared gradient matrix
    history = []
    for epoch in range(epochs):
        total = 0.0
        for step in steps:
            value = step()
            if not math.isfinite(value) or value > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"loss diverged at epoch {epoch} (value {value:.3e})",
                    w=opt.w.copy(), history=history,
                )
            total += value
            opt.step(grad)
        history.append(total / len(dataset))
        if stop_below is not None and history[-1] <= stop_below:
            break
    return m3.copy(), history
