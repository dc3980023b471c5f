"""
Finite-sum objectives f(x) = (1/N) sum_i f_i(x) with exact per-sample gradients.

Three kinds are provided:

- quadratic:  f_i(x) = 0.5 (x - a_i)^T A (x - a_i), A PSD (full matrix or diagonal)
- logistic:   f_i(w) = log(1 + exp(-y_i <phi_i, w>)) + 0.5 l2 ||w||^2
- tiny_mlp:   squared-error regression with <= 2 tanh hidden layers,
              gradients by manual backprop (no autodiff dependency)

Everything is float64 and deterministic: datasets are regenerated from
`generator_seed`, objectives are immutable after construction, and gradient
evaluation contains no internal randomness.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

QUADRATIC = "quadratic"
LOGISTIC = "logistic"
TINY_MLP = "tiny_mlp"

KINDS = (QUADRATIC, LOGISTIC, TINY_MLP)

# SeedSequence tags keeping dataset / init / probe streams apart.
_DATA_TAG = 11
_INIT_TAG = 12
_PROBE_TAG = 13


@dataclass
class ParamVector:
    """Dense parameter vector with an optional block (filter/layer) partition.

    `partition` is a list of (start, stop) index ranges; blocks must be
    disjoint, ordered, and cover [0, d) exactly.  The default is a single
    block covering the whole vector.
    """

    values: np.ndarray
    partition: list = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("ParamVector.values must be one-dimensional")
        if self.partition is None:
            self.partition = [(0, self.values.size)]
        self.partition = [(int(a), int(b)) for a, b in self.partition]

    @property
    def dim(self):
        return self.values.size

    def validate(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ParamVector.values contains non-finite entries")
        cursor = 0
        for start, stop in self.partition:
            if start != cursor or stop <= start:
                raise ValueError(
                    "ParamVector.partition blocks must be disjoint, ordered, "
                    "and cover [0, d) exactly"
                )
            cursor = stop
        if cursor != self.values.size:
            raise ValueError("ParamVector.partition does not cover [0, d)")
        return self

    def copy(self):
        return ParamVector(self.values.copy(), list(self.partition))

    def norm(self):
        return float(np.linalg.norm(self.values))


@dataclass
class ObjectiveSpec:
    """Finite-sum objective with its generated dataset.

    Only the fields for the active `kind` are populated.  Construct through
    `make_quadratic` / `make_logistic` / `make_tiny_mlp` so the dataset is a
    deterministic function of `generator_seed`.
    """

    kind: str
    dimension: int
    sample_count: int
    generator_seed: int

    # quadratic
    quad_diag: np.ndarray = None        # (d,) eigenvalues, or None
    quad_matrix: np.ndarray = None      # (d, d) PSD matrix, or None
    quad_shifts: np.ndarray = None      # (N, d) per-sample shifts a_i

    # logistic
    logit_features: np.ndarray = None   # (N, d)
    logit_labels: np.ndarray = None     # (N,) in {-1, +1}
    logit_l2: float = 0.0

    # tiny_mlp
    mlp_widths: tuple = None            # (in, h1[, h2], out)
    mlp_inputs: np.ndarray = None       # (N, in)
    mlp_targets: np.ndarray = None      # (N, out)
    mlp_f_star: float = 0.0             # configured lower bound on f

    partition: list = field(default_factory=list)

    @functools.cached_property
    def quad_shift_mean(self):
        """Read-only mean of the quadratic's shifts over all N samples, built
        once by the oracle's own `_batch_mean`: the full-sample gradient is
        A (x - this) at every point.  `dataclasses.replace` makes a new
        objective, which computes its own."""
        mean = _batch_mean(self.quad_shifts)
        mean.setflags(write=False)
        return mean

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._check_shapes()
        if self.kind == QUADRATIC:
            if self.quad_matrix is not None:
                a = self.quad_matrix
                if not np.allclose(a, a.T, atol=1e-12):
                    raise ValueError("quadratic matrix A must be symmetric")
                if np.min(np.linalg.eigvalsh(a)) < -1e-12:
                    raise ValueError("quadratic matrix A must be PSD")
            elif np.min(self.quad_diag) < 0:
                raise ValueError("quadratic diagonal must be nonnegative")
        return self

    def _check_shapes(self):
        """Every populated array must match (N, d) and the MLP widths, so a
        changed sample_count or dimension fails here, not mid-run."""
        n, d = self.sample_count, self.dimension
        if self.kind == QUADRATIC:
            required = ("quad_shifts",)
            shapes = {"quad_diag": (d,), "quad_matrix": (d, d), "quad_shifts": (n, d)}
            if self.quad_diag is None and self.quad_matrix is None:
                raise ValueError("quadratic objective needs quad_diag or quad_matrix")
        elif self.kind == LOGISTIC:
            required = shapes = {"logit_features": (n, d), "logit_labels": (n,)}
        else:
            widths = self.mlp_widths
            if widths is None or not 2 <= len(widths) <= 4:
                raise ValueError("tiny_mlp widths must be (in, [h1, [h2,]] out)")
            params = sum(widths[l + 1] * (widths[l] + 1) for l in range(len(widths) - 1))
            if params != d:
                raise ValueError(f"mlp_widths {tuple(widths)} have {params} "
                                 f"parameters, but dimension is {d}")
            required = shapes = {"mlp_inputs": (n, widths[0]),
                                 "mlp_targets": (n, widths[-1])}
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} objective needs {name}")
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is not None and np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, expected "
                                 f"{shape} for sample_count={n}, dimension={d}")
        if self.partition:
            ParamVector(np.zeros(d), self.partition).validate()


@dataclass
class TheoryConstants:
    """Problem constants used by the convergence bounds.

    L and sigma^2 are analytic for quadratic/logistic and empirical estimates
    for tiny_mlp; sigma^2 is a max-over-samples bound measured at a single
    reference point, so it lower-bounds the uniform constant.
    """

    lipschitz_L: float
    variance_sigma2: float
    f_star: float
    r0: float
    horizon_T: int = 0
    target_epsilon: float = 0.0

    def validate(self):
        if self.lipschitz_L < 0 or self.variance_sigma2 < 0 or self.r0 < 0:
            raise ValueError("TheoryConstants entries must be nonnegative")
        return self


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_quadratic(dimension, sample_count, generator_seed=0, diag=None,
                   matrix=None, shifts=None, shift_spread=1.0, shift_mean=None):
    """Quadratic finite sum 0.5 (x - a_i)^T A (x - a_i).

    Pass `diag` (eigenvalues) or a full PSD `matrix`; defaults to identity.
    Shifts a_i can be given explicitly or are drawn N(shift_mean, spread^2)
    from `generator_seed`.
    """
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=np.float64)
        diag = None
    else:
        diag = np.ones(dimension) if diag is None else np.asarray(diag, dtype=np.float64)
    if shifts is None:
        rng = np.random.default_rng(np.random.SeedSequence((generator_seed, _DATA_TAG)))
        shifts = shift_spread * rng.standard_normal((sample_count, dimension))
        if shift_mean is not None:
            shifts = shifts - shifts.mean(axis=0) + np.asarray(shift_mean, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64).reshape(sample_count, dimension)
    return ObjectiveSpec(
        kind=QUADRATIC, dimension=dimension, sample_count=sample_count,
        generator_seed=generator_seed, quad_diag=diag, quad_matrix=matrix,
        quad_shifts=shifts, partition=[(0, dimension)],
    ).validate()


def make_logistic(dimension, sample_count, generator_seed=0, l2=0.0,
                  features=None, labels=None, feature_scale=1.0):
    """Binary logistic regression on seeded Gaussian features, labels +-1."""
    rng = np.random.default_rng(np.random.SeedSequence((generator_seed, _DATA_TAG)))
    if features is None:
        features = feature_scale * rng.standard_normal((sample_count, dimension))
        true_w = rng.standard_normal(dimension)
        labels = np.where(features @ true_w + 0.5 * rng.standard_normal(sample_count) >= 0, 1.0, -1.0)
    features = np.asarray(features, dtype=np.float64).reshape(sample_count, dimension)
    labels = np.asarray(labels, dtype=np.float64).reshape(sample_count)
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("logistic labels must be +-1")
    return ObjectiveSpec(
        kind=LOGISTIC, dimension=dimension, sample_count=sample_count,
        generator_seed=generator_seed, logit_features=features,
        logit_labels=labels, logit_l2=float(l2), partition=[(0, dimension)],
    ).validate()


def make_tiny_mlp(widths, sample_count, generator_seed=0, input_scale=1.0,
                  target_noise=0.1, f_star=0.0):
    """Tanh MLP regression objective, at most 2 hidden layers.

    Targets come from a seeded teacher network of the same shape plus
    Gaussian noise, so the problem is nonconvex but near-realizable.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or len(widths) > 4:
        raise ValueError("tiny_mlp widths must be (in, [h1, [h2,]] out): at most 2 hidden layers")
    rng = np.random.default_rng(np.random.SeedSequence((generator_seed, _DATA_TAG)))
    inputs = input_scale * rng.standard_normal((sample_count, widths[0]))
    teacher = [
        (rng.standard_normal((widths[l + 1], widths[l])) / np.sqrt(widths[l]),
         0.1 * rng.standard_normal(widths[l + 1]))
        for l in range(len(widths) - 1)
    ]
    h = inputs
    for l, (w, b) in enumerate(teacher):
        h = h @ w.T + b
        if l < len(teacher) - 1:
            h = np.tanh(h)
    targets = h + target_noise * rng.standard_normal(h.shape)

    dim = sum(widths[l + 1] * widths[l] + widths[l + 1] for l in range(len(widths) - 1))
    partition, cursor = [], 0
    for l in range(len(widths) - 1):
        n_w = widths[l + 1] * widths[l]
        partition.append((cursor, cursor + n_w))            # weight block
        partition.append((cursor + n_w, cursor + n_w + widths[l + 1]))  # bias block
        cursor += n_w + widths[l + 1]
    return ObjectiveSpec(
        kind=TINY_MLP, dimension=dim, sample_count=sample_count,
        generator_seed=generator_seed, mlp_widths=widths, mlp_inputs=inputs,
        mlp_targets=targets, mlp_f_star=float(f_star), partition=partition,
    ).validate()


def initial_point(obj, init_scale=1.0):
    """Deterministic starting point: zeros for quadratic/logistic, a seeded
    1/sqrt(fan_in) init (times init_scale) for tiny_mlp."""
    if obj.kind != TINY_MLP:
        return ParamVector(np.zeros(obj.dimension), list(obj.partition))
    rng = np.random.default_rng(np.random.SeedSequence((obj.generator_seed, _INIT_TAG)))
    chunks = []
    widths = obj.mlp_widths
    for l in range(len(widths) - 1):
        w = init_scale * rng.standard_normal((widths[l + 1], widths[l])) / np.sqrt(widths[l])
        b = np.zeros(widths[l + 1])
        chunks.extend([w.ravel(), b])
    return ParamVector(np.concatenate(chunks), list(obj.partition))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _sample_rows(obj, indices):
    """`indices` as an index into the per-sample arrays, validated once.

    A step-1 `range` becomes a basic slice: a view, with no gather and no
    per-element check.  Anything else becomes an int64 array, a (B,) batch or
    a (K, B) matrix holding one batch per row.
    """
    if isinstance(indices, range) and indices.step == 1:
        if len(indices) == 0:
            raise ValueError("empty index set")
        if indices.start < 0 or indices.stop > obj.sample_count:
            raise IndexError("sample index out of range")
        return slice(indices.start, indices.stop)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty index set")
    if idx.ndim not in (1, 2):
        raise ValueError(f"indices must be a (B,) batch or a (K, B) matrix, got {idx.shape}")
    # One reduction checks both bounds: a negative index wraps above 2**63.
    if idx.view(np.uint64).max() >= obj.sample_count:
        raise IndexError("sample index out of range")
    return idx


def _check_dim(obj, values, rows):
    """values is one (d,) point, or a (K, d) point per row of a (K, B) matrix."""
    if values.shape == (obj.dimension,):
        return
    stacked = isinstance(rows, np.ndarray) and rows.ndim == 2
    if stacked and values.shape == (rows.shape[0], obj.dimension):
        return
    raise ValueError(
        f"dimension mismatch: objective has d={obj.dimension}, got {values.shape}"
    )


def _unpack_mlp(obj, values):
    """(weight, bias) per layer; for (K, d) values each gains a leading K axis
    (the bias as (K, 1, out), so it broadcasts over the batch axis)."""
    layers, cursor = [], 0
    widths = obj.mlp_widths
    lead = values.shape[:-1]
    for l in range(len(widths) - 1):
        n_w = widths[l + 1] * widths[l]
        w = values[..., cursor:cursor + n_w].reshape(lead + (widths[l + 1], widths[l]))
        b = values[..., None, cursor + n_w:cursor + n_w + widths[l + 1]]
        layers.append((w, b))
        cursor += n_w + widths[l + 1]
    return layers


def _mlp_forward(obj, values, rows):
    """(layers, activations, residual net(x_i) - y_i); activations[0] is the
    input.  The matmuls are stacked over any leading K axis."""
    layers = _unpack_mlp(obj, values)
    acts = [obj.mlp_inputs[rows]]
    for l, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w.swapaxes(-1, -2)) + b
        acts.append(np.tanh(z) if l < len(layers) - 1 else z)
    return layers, acts, acts[-1] - obj.mlp_targets[rows]


def _mlp_gradient(obj, values, rows):
    """Mean gradient of 0.5||net(x_i) - y_i||^2 by manual backprop."""
    layers, acts, resid = _mlp_forward(obj, values, rows)
    lead = resid.shape[:-2]
    grad_chunks = [None] * len(layers)
    delta = resid / resid.shape[-2]        # output layer is linear
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        g_w = np.matmul(delta.swapaxes(-1, -2), acts[l])
        g_b = delta.sum(axis=-2)
        grad_chunks[l] = (g_w, g_b)
        if l > 0:
            delta = np.matmul(delta, w) * (1.0 - acts[l] * acts[l])   # tanh'
    return np.concatenate([np.concatenate([gw.reshape(lead + (-1,)), gb], axis=-1)
                           for gw, gb in grad_chunks], axis=-1)


def _batch_mean(a):
    """Mean over the batch axis (-2): bitwise ndarray.mean, without its
    per-call Python overhead."""
    return np.add.reduce(a, axis=-2) / a.shape[-2]


def _quad_apply(obj, vecs):
    """A @ v for a single vector or row-wise for a matrix of vectors."""
    if obj.quad_matrix is not None:
        return vecs @ obj.quad_matrix.T
    return vecs * obj.quad_diag


def batch_gradient(obj, values, indices):
    """Mean of exact per-sample gradients over `indices` (raw ndarray API).

    `indices` is a (B,) batch, a `range` or a (K, B) matrix of K batches.
    For a matrix, `values` is one (d,) point shared by all rows or a (K, d)
    point per row, and the result is (K, d): row k is bitwise what the call
    on row k alone returns, because every kernel reduces along the batch
    axis and multiplies one matrix-vector or matrix-matrix product per row.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = _sample_rows(obj, indices)
    _check_dim(obj, values, rows)
    if obj.kind == QUADRATIC:
        if isinstance(rows, slice) and rows == slice(0, obj.sample_count):
            diff = values - obj.quad_shift_mean
        else:
            diff = values - _batch_mean(obj.quad_shifts[rows])
        if obj.quad_matrix is None:
            return diff * obj.quad_diag
        return np.matmul(diff[..., None, :], obj.quad_matrix.T)[..., 0, :]
    if obj.kind == LOGISTIC:
        phi = obj.logit_features[rows]
        y = obj.logit_labels[rows]
        margin = y * np.matmul(phi, values[..., None])[..., 0]
        # d/dw log(1+exp(-m)) = -y phi sigmoid(-m)
        coef = -y * _sigmoid(-margin)
        return _batch_mean(coef[..., None] * phi) + obj.logit_l2 * values
    return _mlp_gradient(obj, values, rows)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sample_gradient(obj, x, i):
    """Exact gradient of f_i at x. Deterministic, no internal randomness."""
    i = int(i)
    if i < 0 or i >= obj.sample_count:
        raise IndexError(f"sample index {i} out of range [0, {obj.sample_count})")
    return ParamVector(batch_gradient(obj, x.values, [i]), list(x.partition))


def full_gradient(obj, x):
    """Exact average (1/N) sum_i grad f_i(x)."""
    return ParamVector(
        batch_gradient(obj, x.values, range(obj.sample_count)),
        list(x.partition),
    )


def loss_sample(obj, x, i):
    i = int(i)
    if i < 0 or i >= obj.sample_count:
        raise IndexError(f"sample index {i} out of range [0, {obj.sample_count})")
    return batch_loss(obj, x.values, [i])


def loss(obj, x):
    return batch_loss(obj, x.values, range(obj.sample_count))


def batch_loss(obj, values, indices):
    """Mean per-sample loss over `indices`, a (B,) batch or a `range` (raw
    ndarray API)."""
    values = np.asarray(values, dtype=np.float64)
    rows = _sample_rows(obj, indices)
    if isinstance(rows, np.ndarray) and rows.ndim != 1:
        raise ValueError("batch_loss takes one batch of indices")
    _check_dim(obj, values, rows)
    if obj.kind == QUADRATIC:
        diffs = values - obj.quad_shifts[rows]
        return 0.5 * float(np.mean(np.sum(diffs * _quad_apply(obj, diffs), axis=1)))
    if obj.kind == LOGISTIC:
        margin = obj.logit_labels[rows] * (obj.logit_features[rows] @ values)
        # log(1+exp(-m)) computed stably
        val = np.logaddexp(0.0, -margin).mean()
        return float(val + 0.5 * obj.logit_l2 * values @ values)
    _, _, resid = _mlp_forward(obj, values, rows)
    return 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def estimate_constants(obj, x0, probe_budget=16, horizon_T=0, target_epsilon=0.0,
                       f_star_override=None):
    """Lipschitz constant L, variance bound sigma^2, f*, and r0 = f(x0) - f*.

    Quadratic: analytic (L = lambda_max(A); sigma^2 = max_i ||A(a_i - abar)||^2,
    which is x-independent).  Logistic: analytic L = 0.25 max_i ||phi_i||^2 + l2,
    brute-force sigma^2 at x0.  tiny_mlp: empirical estimates — sigma^2 brute
    force at x0, L from probe_budget random gradient probes around x0.
    """
    if probe_budget < 1:
        raise ValueError("probe_budget must be >= 1")
    if obj.kind == QUADRATIC:
        if obj.quad_matrix is not None:
            lip = float(np.max(np.linalg.eigvalsh(obj.quad_matrix)))
        else:
            lip = float(np.max(obj.quad_diag))
        centered = obj.quad_shifts - obj.quad_shift_mean
        dev = _quad_apply(obj, centered)
        sigma2 = float(np.max(np.sum(dev * dev, axis=1)))
        f_star = batch_loss(obj, obj.quad_shift_mean, range(obj.sample_count))
    elif obj.kind == LOGISTIC:
        lip = float(0.25 * np.max(np.sum(obj.logit_features ** 2, axis=1)) + obj.logit_l2)
        sigma2 = _sigma2_at(obj, x0.values)
        f_star = 0.0
    else:
        sigma2 = _sigma2_at(obj, x0.values)
        rng = np.random.default_rng(np.random.SeedSequence((obj.generator_seed, _PROBE_TAG)))
        g0 = batch_gradient(obj, x0.values, range(obj.sample_count))
        lip = 0.0
        for _ in range(int(probe_budget)):
            direction = rng.standard_normal(obj.dimension)
            direction /= np.linalg.norm(direction)
            step = 0.1 * rng.uniform(0.5, 2.0)
            g1 = batch_gradient(obj, x0.values + step * direction, range(obj.sample_count))
            lip = max(lip, float(np.linalg.norm(g1 - g0) / step))
        f_star = obj.mlp_f_star
    if f_star_override is not None:
        f_star = float(f_star_override)
    r0 = max(0.0, batch_loss(obj, x0.values, range(obj.sample_count)) - f_star)
    return TheoryConstants(
        lipschitz_L=lip, variance_sigma2=sigma2, f_star=f_star, r0=r0,
        horizon_T=int(horizon_T), target_epsilon=float(target_epsilon),
    ).validate()


def _sigma2_at(obj, values):
    """max_i ||grad f_i - grad f||^2 at one point, brute force over all N."""
    gbar = batch_gradient(obj, values, range(obj.sample_count))
    worst = 0.0
    for i in range(obj.sample_count):
        dev = batch_gradient(obj, values, [i]) - gbar
        worst = max(worst, float(dev @ dev))
    return worst


# ---------------------------------------------------------------------------
# testing oracle
# ---------------------------------------------------------------------------

def finite_difference_gradient(func, values, eps=1e-5):
    """Central-difference gradient of a scalar function; the test oracle."""
    values = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(values)
    for j in range(values.size):
        shifted = values.copy()
        shifted[j] = values[j] + eps
        fplus = func(shifted)
        shifted[j] = values[j] - eps
        fminus = func(shifted)
        grad[j] = (fplus - fminus) / (2.0 * eps)
    return grad

