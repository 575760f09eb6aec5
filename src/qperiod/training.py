"""Loss, analytic gradient, ADAM, and the stochastic training loop for M3.

The candidate matrix is parameterized by 2 * dim^2 reals: real and
imaginary parts interleaved per entry, row-major. The loss is

    (1/2^n) sum_i [P_a(i) - P_d(i)]^2  +  (k/dim^2) sum_ij |M†M - I|^2_ij

where P_a is the X-register distribution the candidate produces and dim
is the full matrix dimension (2^{n+ancilla}).
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import distribution_distance
from .circuit import (
    PeriodicFunction,
    _reference_for_period,
    generate_periodic_function,
    period_marginal,
)
from .linalg import unitarity_defect

__all__ = [
    "LossConfig",
    "AdamConfig",
    "TrainState",
    "TrainingDataset",
    "DivergenceError",
    "target_distribution",
    "loss",
    "loss_gradient",
    "achieved_distribution",
    "adam_step",
    "initialize_parameters",
    "cycled_periods",
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


@dataclass(frozen=True)
class LossConfig:
    k: float = 1.0
    target_kind: str = "qft-reference"
    gaussian_sigma: float = 1.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("penalty weight k must be positive")
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.gaussian_sigma <= 0:
            raise ValueError("gaussian_sigma must be positive")


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.001
    # class constants, not fields: no caller varies them
    beta1 = 0.9
    beta2 = 0.99
    epsilon = 1e-8

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class TrainState:
    """Flattened parameters plus first/second ADAM moments and step count."""

    w: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    t: int


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
    only f.n and f.r. "qft-reference" is the cached, read-only FFT closed form
    (circuit._reference_for_period) of the conventional circuit's distribution."""
    size = 2 ** f.n
    if kind == "qft-reference":
        return _reference_for_period(f.n, f.r)
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
        if gaussian_sigma <= 0:
            raise ValueError("gaussian_sigma must be positive")
        i = np.arange(size)
        p = np.exp(-((i - f.r) ** 2) / (2.0 * gaussian_sigma ** 2))
        return p / p.sum()
    raise ValueError(f"unknown target kind {kind!r}")


def _run_buffers(m3: np.ndarray) -> tuple:
    """The arrays all samples of a run share: m3 itself, then conj(m3),
    M†M - I and the gradient matrix, each C-ordered dim x dim."""
    conj, h, grad = (np.empty(m3.shape, dtype=np.complex128) for _ in range(3))
    return m3, conj, h, grad


def _sample_step(f: PeriodicFunction, p_d, k: float, run: tuple):
    """One training step for sample (f, p_d) on the run's buffers
    (_run_buffers): a closure with no arguments that returns the loss value
    and leaves the gradient matrix in run[-1], overwritten by the next call.
    Every buffer, view and constant the step needs is made here, once.

    psi holds the post-oracle amplitudes grouped by function value: row x
    has its one nonzero, 1/sqrt(2^n), in column x mod r (first-occurrence
    order; the marginal over F only ever sees column magnitudes, so the
    value labels drop out).

    Supports ancilla-extended matrices: when dim > 2^n, the X register is
    the high-order index, ancillas start in |0> (so only every
    (dim/2^n)-th column of m3 acts) and P_a marginalizes the ancillas.
    The gradient's product with psi^T is a gather of columns times psi's
    one nonzero value, exact because each row of psi has a single nonzero.

    The values are bit for bit those of the allocating formula, which
    builds every intermediate anew, M†M - I through an identity, and the
    data term through the product with psi^T.
    """
    m3, conj, h, grad = run
    size = 2 ** f.n
    dim = m3.shape[0]
    anc = dim // size
    if anc * size != dim:
        raise ValueError(f"matrix dim {dim} is not a multiple of 2^n = {size}")
    r = f.r
    dim2 = dim ** 2
    # 0-d complex128 constants, which ufuncs take with less overhead than
    # Python floats (the same (x, +0.0) values the floats are cast to)
    one = np.array(1.0 + 0j)
    scale = np.array(complex(1.0 / np.sqrt(size)))  # psi's nonzero value
    pen_coef = np.array(complex(4.0 * k / dim2))
    data_coef = np.array(complex(4.0 / size))
    cols = np.arange(size) % r
    psi = np.zeros((size, r), dtype=np.complex128)
    psi[np.arange(size), cols] = scale
    sub = m3[:, ::anc]  # the columns the X register reaches
    a = np.empty((dim, r), dtype=np.complex128)
    a_pairs = a.view(np.float64)
    a_rows = a.reshape(size, anc, r)
    sq = np.empty((dim, 2 * r))
    sq_re, sq_im = sq[:, 0::2], sq[:, 1::2]
    mag = np.empty((dim, r))
    rowp = np.empty(dim)
    rowp_groups = rowp.reshape(size, anc)
    p_a = np.empty(size) if anc > 1 else rowp  # the X-register marginal
    p_d = np.asarray(p_d, dtype=np.float64)
    e = np.empty(size)
    e_rows = e[:, None, None]  # one value per anc rows of a
    t = np.empty((dim, r), dtype=np.complex128)  # data term per column of a
    t_rows = t.reshape(size, anc, r)
    t_cols = np.empty((dim, size), dtype=np.complex128)
    conj_t = conj.T
    h_diag = h.reshape(-1)[::dim + 1]
    grad_x = grad[:, ::anc]

    def step() -> float:
        np.matmul(sub, psi, out=a)
        np.multiply(a_pairs, a_pairs, out=sq)
        np.add(sq_re, sq_im, out=mag)
        np.add.reduce(mag, axis=1, out=rowp)
        if anc > 1:
            np.add.reduce(rowp_groups, axis=1, out=p_a)
        np.subtract(p_a, p_d, out=e)
        dist = float(e.dot(e)) / size
        np.conjugate(m3, out=conj)
        # on these contiguous operands np.dot makes the same zgemm call as @,
        # with less dispatch; sub may be strided, where the two take
        # different paths
        np.dot(conj_t, m3, out=h)
        np.subtract(h_diag, one, out=h_diag)
        pen = k * float(np.vdot(h, h).real) / dim2
        np.dot(m3, h, out=grad)
        np.multiply(pen_coef, grad, out=grad)
        np.multiply(e_rows, a_rows, out=t_rows)
        np.multiply(t, scale, out=t)
        np.multiply(data_coef, t, out=t)
        np.take(t, cols, axis=1, out=t_cols, mode="clip")
        np.add(grad_x, t_cols, out=grad_x)
        return dist + pen

    return step


def achieved_distribution(m3, f: PeriodicFunction) -> np.ndarray:
    """X-register distribution the candidate matrix produces for f; the
    ancillas of a matrix wider than 2^n are marginalized with F."""
    return period_marginal(m3, f.n, f.r)


def loss(m3, f: PeriodicFunction, p_d, k: float) -> float:
    """Distribution mismatch plus unitarity penalty for one sample: the
    distribution_distance of achieved_distribution from p_d plus k times the
    unitarity_defect. Agrees with train's value (_sample_step) within 1e-15."""
    return (distribution_distance(achieved_distribution(m3, f), p_d)
            + k * unitarity_defect(m3))


def loss_gradient(m3, f: PeriodicFunction, p_d, k: float) -> np.ndarray:
    """Gradient of loss with respect to the 2 * dim^2 real parameters."""
    run = _run_buffers(np.asarray(m3, dtype=np.complex128))
    _sample_step(f, p_d, k, run)()
    return run[-1].reshape(-1).view(np.float64)


class _Adam:
    """ADAM that owns w, m, v and the step count and updates them in place.

    `step` makes adam_step's passes, in its operation order, one cache-sized
    slice at a time into two scratch rows. Every pass is element-wise and
    correctly rounded, so the bits do not depend on the slicing: the arrays
    hold exactly what the allocating formula would return.
    """

    def __init__(self, w: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
                 cfg: AdamConfig):
        self.w, self.m, self.v, self.t, self.cfg = w, m, v, t, cfg
        # the step's constants as 0-d arrays, which ufuncs take with less
        # overhead than Python floats (same float64 values)
        self._consts = [np.array(x) for x in (cfg.beta1, 1 - cfg.beta1, cfg.beta2,
                                              1 - cfg.beta2, cfg.epsilon, cfg.alpha)]
        scratch = np.empty((2, min(w.size, _ADAM_SLICE)))
        flat = [x.reshape(-1) for x in (w, m, v)]
        self._slices = []
        for start in range(0, w.size, _ADAM_SLICE):
            part = slice(start, start + _ADAM_SLICE)
            rows = [x[part] for x in flat]
            self._slices.append((part, *rows, *scratch[:, :rows[0].size]))

    @classmethod
    def from_state(cls, state: TrainState, cfg: AdamConfig) -> "_Adam":
        """An optimizer on float64 copies of the state's arrays."""
        w, m, v = (np.array(x, dtype=np.float64, order="C")
                   for x in (state.w, state.adam_m, state.adam_v))
        return cls(w, m, v, state.t, cfg)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, one_b1, b2, one_b2, eps, alpha = self._consts
        c1, c2 = 1 - self.cfg.beta1 ** self.t, 1 - self.cfg.beta2 ** self.t
        grad = grad.reshape(-1)
        for part, w, m, v, x, y in self._slices:
            g = grad[part]
            np.multiply(m, b1, out=m)
            np.multiply(g, one_b1, out=x)
            np.add(m, x, out=m)
            np.multiply(g, g, out=x)
            np.multiply(x, one_b2, out=x)
            np.multiply(v, b2, out=v)
            np.add(v, x, out=v)
            np.divide(m, c1, out=y)
            np.divide(v, c2, out=x)
            np.sqrt(x, out=x)
            np.add(x, eps, out=x)
            np.multiply(y, alpha, out=y)
            np.divide(y, x, out=y)
            np.subtract(w, y, out=w)


def adam_step(state: TrainState, grad: np.ndarray, cfg: AdamConfig) -> TrainState:
    """One ADAM update, exactly in this operation order:

    t <- t+1; m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    mhat <- m/(1-b1^t); vhat <- v/(1-b2^t); w <- w - alpha*mhat/(sqrt(vhat)+eps).

    Pure: the update runs on copies in the in-place kernel both training
    loops use, and `state` is left unchanged.
    """
    if grad.shape != state.w.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {state.w.shape}")
    opt = _Adam.from_state(state, cfg)
    opt.step(grad)
    return TrainState(w=opt.w, adam_m=opt.m, adam_v=opt.v, t=opt.t)


def initialize_parameters(n: int, seed) -> TrainState:
    """Gaussian start: i.i.d. N(0, 1/2^n) per real component.

    Standard deviation 2^{-n/2} puts rows at roughly unit norm, i.e. near
    the scale of a unitary, so the penalty term starts in a useful regime.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 ** n
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(dim), 2 * dim * dim)
    return TrainState(w=w, adam_m=np.zeros_like(w), adam_v=np.zeros_like(w), t=0)


def cycled_periods(n: int, size: int) -> list:
    """`size` periods cycling 1..2^{n-1}.

    Cycling guarantees every small period (always including r = 1) is
    represented, which random draws at desk scale frequently miss.
    """
    return [1 + i % 2 ** (n - 1) for i in range(size)]


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
    """Dataset of `size` functions with cycled periods (see cycled_periods);
    the function values are random per item."""
    return dataset_for_periods(n, m, cycled_periods(n, size), seed, loss_cfg)


def train(dataset: TrainingDataset, loss_cfg: LossConfig, adam_cfg: AdamConfig,
          epochs: int, seed, ancilla: int = 0, *,
          init: TrainState = None, stop_below: float = None):
    """Per-sample stochastic ADAM over the dataset in fixed order.

    Returns (m3, loss_history) where loss_history[e] is the mean of the
    per-sample losses measured before each update in epoch e. With
    ancilla > 0 the learned matrix acts on n + ancilla qubits. `init`
    overrides the random start; `stop_below` ends training early once the
    epoch loss reaches the given level.

    Each sample's step is built once (_sample_step): every buffer, view and
    constant it needs is made before the first epoch, so a step makes
    only its arithmetic, into those buffers, and ADAM updates the
    parameters in place. The results are bit for bit those of rebuilding
    every intermediate and the optimizer state at each step.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if ancilla < 0:
        raise ValueError("ancilla must be >= 0")
    n = dataset.n
    dim = 2 ** (n + ancilla)
    start = init if init is not None else initialize_parameters(n + ancilla, seed)
    if start.w.size != 2 * dim * dim:
        raise ValueError("init state size does not match n + ancilla")
    opt = _Adam.from_state(start, adam_cfg)
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
