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

import copy
import functools
import inspect
import math
from dataclasses import dataclass

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
class ObjectiveSpec:
    """Finite-sum objective with its generated dataset.

    Only the fields for the active `kind` are populated.  Construct through
    `make_quadratic` / `make_logistic` / `make_tiny_mlp` so the dataset is a
    deterministic function of `generator_seed`.

    `partition` is the block (filter/layer) split that LARS and filter-scaled
    noise read: (start, stop) index ranges that are disjoint, ordered and
    cover [0, d) exactly.  None means one block covering every parameter.

    `maker_call` is the config document of the maker call that built the
    objective, or None: a plain attribute, not a field, so `==` ignores it
    and `dataclasses.replace`, whose objective may differ, drops it.
    """

    maker_call = None

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
    mlp_widths: tuple[int, ...] = None  # (in, h1[, h2], out)
    mlp_inputs: np.ndarray = None       # (N, in)
    mlp_targets: np.ndarray = None      # (N, out)
    mlp_f_star: float = 0.0             # configured lower bound on f

    partition: list[tuple[int, int]] = None

    def __post_init__(self):
        if self.partition is None:
            self.partition = [(0, self.dimension)]

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
        if self.generator_seed < 0:
            raise ValueError(f"generator_seed must be >= 0, got {self.generator_seed}")
        self._check_shapes()
        if self.kind == QUADRATIC:
            if self.quad_matrix is not None:
                a = self.quad_matrix
                if not np.allclose(a, a.T, atol=1e-12):
                    raise ValueError("quadratic matrix A must be symmetric")
                if np.min(np.linalg.eigvalsh(a)) < -1e-12:
                    raise ValueError("quadratic matrix A must be PSD")
            elif not np.min(self.quad_diag) >= 0:     # a NaN fails too
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
            params = _mlp_blocks(widths)[-1][1]
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
        starts = [start for start, _ in self.partition]
        stops = [stop for _, stop in self.partition]
        if [0] + stops != starts + [d] or any(a >= b for a, b in self.partition):
            raise ValueError(f"partition {self.partition} must split [0, {d}) "
                             f"into disjoint, ordered, nonempty blocks")


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

    def validate(self):
        # Written so that a NaN fails it.
        if not (self.lipschitz_L >= 0 and self.variance_sigma2 >= 0 and self.r0 >= 0):
            raise ValueError("TheoryConstants entries must be nonnegative")
        for name in ("lipschitz_L", "variance_sigma2", "f_star", "r0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"theory constant {name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        return self


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _check_sizes(generator_seed, **sizes):
    """The sizes a maker draws its data with must be >= 1, and its seed
    >= 0; checked before numpy sees them, so the error names the argument."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    if generator_seed < 0:
        raise ValueError(f"generator_seed must be >= 0, got {generator_seed}")


def _check_given(sample_count, dimension, **arrays):
    """Each explicit array argument, {name: (value, shape)}, must hold the
    values of the shape the maker reshapes it to; checked before numpy
    broadcasts or reshapes it, so the error names the argument."""
    for name, (value, shape) in arrays.items():
        if value is not None and np.size(value) != np.prod(shape):
            raise ValueError(f"{name} has shape {np.shape(value)}, expected {shape} "
                             f"for sample_count={sample_count}, dimension={dimension}")


def _records_call(maker):
    """`maker`, setting `maker_call` = {"maker": kind, every argument with
    defaults applied} on each objective it returns.  Arrays are kept as
    float64 copies and the rest as deep copies, so mutating an argument later
    cannot change the record, and a call rebuilt from it records the same."""
    signature = inspect.signature(maker)

    @functools.wraps(maker)
    def make(*args, **kwargs):
        obj = maker(*args, **kwargs)
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        obj.maker_call = {"maker": obj.kind, **{
            name: (np.array(value, dtype=np.float64)
                   if value is not None
                   and signature.parameters[name].annotation is np.ndarray
                   else copy.deepcopy(value))
            for name, value in call.arguments.items()}}
        return obj
    return make


@_records_call
def make_quadratic(dimension: int, sample_count: int, generator_seed: int = 0,
                   diag: np.ndarray = None, matrix: np.ndarray = None,
                   shifts: np.ndarray = None, shift_spread: float = 1.0,
                   shift_mean: np.ndarray = None):
    """Quadratic finite sum 0.5 (x - a_i)^T A (x - a_i).

    Pass `diag` (eigenvalues) or a full PSD `matrix`; defaults to identity.
    Shifts a_i can be given explicitly or are drawn N(shift_mean, spread^2)
    from `generator_seed`.
    """
    _check_sizes(generator_seed, dimension=dimension, sample_count=sample_count)
    _check_given(sample_count, dimension, shifts=(shifts, (sample_count, dimension)),
                 shift_mean=(shift_mean, (dimension,)))
    if shifts is not None and (shift_mean is not None or shift_spread != 1.0):
        raise ValueError("shift_mean and shift_spread shape drawn shifts only: "
                         "leave them unset with explicit shifts")
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=np.float64)
        diag = None
    else:
        diag = np.ones(dimension) if diag is None else np.asarray(diag, dtype=np.float64)
    if shifts is None:
        rng = np.random.default_rng(np.random.SeedSequence((generator_seed, _DATA_TAG)))
        shifts = shift_spread * rng.standard_normal((sample_count, dimension))
        if shift_mean is not None:
            shifts = (shifts - shifts.mean(axis=0)
                      + np.asarray(shift_mean, dtype=np.float64).reshape(dimension))
    shifts = np.asarray(shifts, dtype=np.float64).reshape(sample_count, dimension)
    return ObjectiveSpec(
        kind=QUADRATIC, dimension=dimension, sample_count=sample_count,
        generator_seed=generator_seed, quad_diag=diag, quad_matrix=matrix,
        quad_shifts=shifts).validate()


@_records_call
def make_logistic(dimension: int, sample_count: int, generator_seed: int = 0,
                  l2: float = 0.0, features: np.ndarray = None,
                  labels: np.ndarray = None, feature_scale: float = 1.0):
    """Binary logistic regression on seeded Gaussian features, labels +-1."""
    _check_sizes(generator_seed, dimension=dimension, sample_count=sample_count)
    if (features is None) != (labels is None):
        raise ValueError("logistic features and labels must be given together")
    _check_given(sample_count, dimension, features=(features, (sample_count, dimension)),
                 labels=(labels, (sample_count,)))
    if features is not None and feature_scale != 1.0:
        raise ValueError("feature_scale scales drawn features only: "
                         "leave it unset with explicit features")
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
        logit_labels=labels, logit_l2=float(l2)).validate()


@_records_call
def make_tiny_mlp(widths: tuple[int, ...], sample_count: int,
                  generator_seed: int = 0, input_scale: float = 1.0,
                  target_noise: float = 0.1, f_star: float = 0.0):
    """Tanh MLP regression objective, at most 2 hidden layers.

    Targets come from a seeded teacher network of the same shape plus
    Gaussian noise, so the problem is nonconvex but near-realizable.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or len(widths) > 4:
        raise ValueError("tiny_mlp widths must be (in, [h1, [h2,]] out): at most 2 hidden layers")
    _check_sizes(generator_seed, sample_count=sample_count,
                 **{f"widths[{i}]": w for i, w in enumerate(widths)})
    rng = np.random.default_rng(np.random.SeedSequence((generator_seed, _DATA_TAG)))
    inputs = input_scale * rng.standard_normal((sample_count, widths[0]))
    partition = _mlp_blocks(widths)
    teacher = _unpack_mlp(widths, np.empty(partition[-1][1]))
    for w, b in teacher:                   # each layer's weights, then its bias
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[-1])
        b[...] = 0.1 * rng.standard_normal(b.shape)
    targets = _mlp_net(teacher, inputs)[-1]
    targets += target_noise * rng.standard_normal(targets.shape)
    return ObjectiveSpec(
        kind=TINY_MLP, dimension=partition[-1][1], sample_count=sample_count,
        generator_seed=generator_seed, mlp_widths=widths, mlp_inputs=inputs,
        mlp_targets=targets, mlp_f_star=float(f_star), partition=partition,
    ).validate()


# The makers a config's objective may name, keyed by the kind each builds.
MAKERS = {QUADRATIC: make_quadratic, LOGISTIC: make_logistic, TINY_MLP: make_tiny_mlp}


def initial_point(obj, init_scale=1.0):
    """Deterministic starting point: zeros for quadratic/logistic, a seeded
    1/sqrt(fan_in) init (times init_scale) for tiny_mlp."""
    if obj.kind != TINY_MLP:
        return np.zeros(obj.dimension)
    rng = np.random.default_rng(np.random.SeedSequence((obj.generator_seed, _INIT_TAG)))
    x = np.zeros(obj.dimension)
    for w, _ in _unpack_mlp(obj.mlp_widths, x):    # the biases stay zero
        w[...] = init_scale * rng.standard_normal(w.shape) / np.sqrt(w.shape[-1])
    return x


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _sample_rows(obj, indices):
    """`indices` as an index into the per-sample arrays, validated once.

    A step-1 `range` becomes a basic slice: a view, with no gather and no
    per-element check.  Anything else becomes an int64 array of batches, its
    last axis B: a (B,) batch, a (K, B) matrix or an (R, K, B) tensor; an
    int64 ndarray is used as given.  Its bounds are checked here because
    `_gather`'s `take` wraps a negative index instead of raising.
    """
    if isinstance(indices, range) and indices.step == 1:
        if len(indices) == 0:
            raise ValueError("empty index set")
        if indices.start < 0 or indices.stop > obj.sample_count:
            raise IndexError("sample index out of range")
        return slice(indices.start, indices.stop)
    idx = indices
    if not (isinstance(idx, np.ndarray) and idx.dtype == np.int64):
        idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty index set")
    if idx.ndim == 0:
        raise ValueError("indices must hold batches of shape (..., B), got a scalar")
    # One reduction checks both bounds: a negative index wraps above 2**63.
    if np.maximum.reduce(idx.view(np.uint64), None) >= obj.sample_count:
        raise IndexError("sample index out of range")
    return idx


def _gather(data, rows):
    """The rows of the per-sample array `data` at `_sample_rows`' `rows`: a
    view for a slice, else one `take` along axis 0, the same copy as
    `data[rows]` made faster."""
    if isinstance(rows, slice):
        return data[rows]
    return data.take(rows, axis=0)


def _check_dim(obj, values, rows):
    """values is (..., d): one (d,) point for every batch, or one per batch
    whose leading axes are the indices' batch axes, the last of which may be
    1 to share a point across it, as the (R, 1, d) points of R trials' K
    workers do.  A `range` has one batch axis of any length: it is the one
    index set of every point of an (R, d) stack."""
    lead = values.shape[:-1]
    axes = lead[-1:] if isinstance(rows, slice) else rows.shape[:-1]
    if (values.shape[-1:] != (obj.dimension,)
            or lead and lead != axes and lead != axes[:-1] + (1,)):
        raise ValueError(
            f"dimension mismatch: objective has d={obj.dimension}, got "
            f"{values.shape} for indices of batch axes {axes}")


def _mlp_blocks(widths):
    """The one flat parameter layout of the MLP of `widths`: the (start,
    stop) of each layer's row-major (out, in) weight block, then of its bias
    block, in layer order.  It is the objective's partition, and its last
    stop is the dimension."""
    blocks, cursor = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        blocks += [(cursor, cursor + fan_out * fan_in),
                   (cursor + fan_out * fan_in, cursor + fan_out * (fan_in + 1))]
        cursor += fan_out * (fan_in + 1)
    return blocks


@functools.cache
def _mlp_layout(widths):
    """`_mlp_blocks` of the widths tuple `widths` per layer, as (w0, w1, b0,
    b1, fan_in, fan_out), built once for each widths tuple."""
    blocks = _mlp_blocks(widths)
    return tuple((w0, w1, b0, b1, fan_in, fan_out)
                 for (w0, w1), (b0, b1), fan_in, fan_out
                 in zip(blocks[::2], blocks[1::2], widths, widths[1:]))


def _unpack_mlp(widths, values):
    """(weight, bias) views of `values` per layer, at `_mlp_blocks(widths)`;
    for (..., d) values each gains the leading axes (the bias as (..., 1,
    out), so it broadcasts over the batch axis)."""
    lead = values.shape[:-1]
    return [(values[..., w0:w1].reshape(lead + (fan_out, fan_in)),
             values[..., None, b0:b1])
            for w0, w1, b0, b1, fan_in, fan_out in _mlp_layout(tuple(widths))]


def _mlp_net(layers, inputs):
    """The activations of the tanh MLP of (weight, bias) `layers` at
    `inputs`: the inputs, one per hidden layer, then the linear output.  The
    matmuls are stacked over any leading axes; each layer's bias and tanh are
    formed in the array its matmul created."""
    acts = [inputs]
    for l, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w.swapaxes(-1, -2))
        z += b
        acts.append(np.tanh(z, out=z) if l < len(layers) - 1 else z)
    return acts


def _mlp_forward(obj, values, rows):
    """(layers, activations, residual net(x_i) - y_i); activations[0] is the
    input, then one per hidden layer.  The residual is formed in the output
    layer's array."""
    layers = _unpack_mlp(obj.mlp_widths, values)
    acts = _mlp_net(layers, _gather(obj.mlp_inputs, rows))
    resid = acts.pop()                     # output layer is linear
    resid -= _gather(obj.mlp_targets, rows)
    return layers, acts, resid


def _mlp_gradient(obj, values, rows, lead=None):
    """Mean gradient of 0.5||net(x_i) - y_i||^2 by manual backprop; with
    `lead`, also the mean over the leading `lead` samples, summed from the
    same propagated deltas and scaled by B / lead.  Each layer's weight and
    bias gradients are written into `_unpack_mlp`'s views of one (..., d)
    result per mean, and the deltas are formed in the residual's array and
    then in each hidden activation's."""
    layers, acts, resid = _mlp_forward(obj, values, rows)
    batch = resid.shape[-2]
    spans = (batch,) if lead is None else (batch, lead)
    grads = [np.empty(resid.shape[:-2] + (obj.dimension,)) for _ in spans]
    parts = [_unpack_mlp(obj.mlp_widths, g) for g in grads]
    delta = np.divide(resid, batch, out=resid)    # output layer is linear
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        for span, part in zip(spans, parts):
            gw, gb = part[l]
            head = delta[..., :span, :]
            np.matmul(head.swapaxes(-1, -2), acts[l][..., :span, :], out=gw)
            np.add.reduce(head, -2, out=gb[..., 0, :])
        if l > 0:                          # tanh' = 1 - a^2, formed in a
            a = acts[l]
            np.subtract(1.0, np.multiply(a, a, out=a), out=a)
            delta = np.multiply(np.matmul(delta, w), a, out=a)
    if lead is None:
        return grads[0]
    grads[1] *= batch / lead
    return tuple(grads)


def _batch_mean(a):
    """Mean over the batch axis (-2): bitwise ndarray.mean, without its
    per-call Python overhead."""
    return np.add.reduce(a, -2) / a.shape[-2]


def row_dots(a, b):
    """Each row's (last axis) dot of the broadcast stacks `a` and `b`, bitwise
    `a_row @ b_row`; its `np.sqrt` is bitwise `np.linalg.norm(a_row)`.  It is
    one BLAS `ddot` per row, whose last bits depend on the SIMD kernel the
    host's BLAS picks.  The norms of the steps (LARS, filter-scaled noise,
    post-local dispersion), the full-gradient metric, the smoothness probe,
    the weight-decay and l2 losses and the constants' r0 and probed L and
    sigma^2 come through here.  The
    numpy reductions that never reach `ddot` are the per-sample squared sums
    of the quadratic and MLP losses and of the quadratic sigma^2 and logistic
    L, `np.linalg.norm(..., axis=1)` in `theory.check_descent_identity` and
    `harness._relative_descent_residuals`, and `np.sum(x ** 2)` in
    `theory.check_proximity_inequalities`."""
    return np.vecdot(a, b)


def _quad_apply(obj, vecs):
    """A @ v for a single vector or row-wise for a matrix of vectors."""
    if obj.quad_matrix is not None:
        return vecs @ obj.quad_matrix.T
    return vecs * obj.quad_diag


def batch_gradient(obj, values, indices, *, lead=None, weight_decay=0.0):
    """Mean of exact per-sample gradients over `indices` (raw ndarray API),
    plus `weight_decay` * x at each point x: the gradient of the objective
    f + (lambda/2)||x||^2 that a run with weight decay lambda minimizes.

    `indices` is a `range`, a (B,) batch or a tensor of batches (..., B),
    such as the (R, K, B) batches of R trials' K workers.  `values` holds one
    point per batch, its leading axes broadcast against the batch axes
    (`_check_dim`): one (d,) point shared by all batches, (R, 1, d) shared by
    each trial's workers, or (R, K, d) per worker.  The result has a
    gradient per batch, and each is bitwise what the call on that batch and
    point alone returns, because every kernel reduces along the batch axis
    and multiplies one matrix-vector or matrix-matrix product per batch.  For
    a `range`, `values` may be an (R, d) stack of points, and the (R, d)
    result's row r is bitwise the call at point r alone.  A logistic `range`
    call with d >= 2 sums its per-sample terms sample-major in blocks
    (`_sample_major_sum`), bitwise the batch-axis mean of the other calls.

    With `lead` = b in [1, B] (batches, not a `range`) the call returns
    (g_B, g_b) from one gather and one forward/backward pass: g_B is bitwise
    the call without `lead`, and g_b is the mean over each batch's leading b
    indices, reduced from per-sample terms already computed.  It is bitwise
    the call on `indices[..., :b]` for quadratics and agrees with it to
    rounding for logistic and tiny_mlp.  The decay term is added last, to
    both gradients of a `lead` call.

    The samples of a batch tensor are gathered by one `take` per per-sample
    array, after one bound check of every index; a `range` reads a view.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = _sample_rows(obj, indices)
    _check_dim(obj, values, rows)
    if lead is not None:
        if isinstance(indices, range):
            raise ValueError("lead needs batches of indices, not a range")
        if not 1 <= lead <= rows.shape[-1]:
            raise ValueError(f"lead must satisfy 1 <= lead <= B = {rows.shape[-1]}, "
                             f"got {lead!r}")
    grads = _gradient(obj, values, rows, lead)
    if weight_decay == 0.0:
        return grads
    decay = weight_decay * values
    if lead is None:
        return grads + decay
    return grads[0] + decay, grads[1] + decay


def _gradient(obj, values, rows, lead):
    """`batch_gradient` without the decay term, its arguments checked."""
    if obj.kind == QUADRATIC:
        if isinstance(rows, slice) and rows == slice(0, obj.sample_count):
            return _quad_gradient(obj, values - obj.quad_shift_mean)
        shifts = _gather(obj.quad_shifts, rows)
        g = _quad_gradient(obj, values - _batch_mean(shifts))
        if lead is None:
            return g
        return g, _quad_gradient(obj, values - _batch_mean(shifts[..., :lead, :]))
    if obj.kind == LOGISTIC:
        phi = _gather(obj.logit_features, rows)
        y = _gather(obj.logit_labels, rows)
        margin = y * np.matmul(phi, values[..., None])[..., 0]
        # d/dw log(1+exp(-m)) = -y phi sigmoid(-m)
        coef = -y * _sigmoid(-margin)
        if isinstance(rows, slice):        # phi is a view of the dataset
            if obj.dimension > 1:
                return _sample_major_sum(coef, phi) / len(y) + obj.logit_l2 * values
            terms = coef[..., None] * phi
        else:                              # phi is the gather's own copy
            terms = np.multiply(coef[..., None], phi, out=phi)
        g = _batch_mean(terms) + obj.logit_l2 * values
        if lead is None:
            return g
        return g, _batch_mean(terms[..., :lead, :]) + obj.logit_l2 * values
    return _mlp_gradient(obj, values, rows, lead)


def _sample_major_sum(coef, phi):
    """sum_i coef[..., i] phi_i for the (..., n) `coef` of one shared (n, d)
    `phi`, bitwise `np.add.reduce(coef[..., None] * phi, -2)` for d >= 2.

    That reduce adds each point's n products in ascending order onto numpy's
    +0.0 identity, d doubles at a time, over a (..., n, d) temporary.  Here
    blocks of about `_SUM_BLOCK` doubles, and at least `_SUM_BLOCK_MIN_ROWS`
    samples, write their (rows, points, d) products after row 0 of one
    buffer, which holds the running sum (+0.0 at first), and reduce it over
    axis 0: the same additions, each points * d wide.  `einsum` writes each
    product in one rounding, as `*` does; it may give +0.0 for a -0.0
    product, which the sum, never -0.0 from its +0.0 start, cannot tell
    apart.  With d = 1 numpy sums the batch axis of the other form
    pairwise, so callers keep that form there."""
    lead, n = coef.shape[:-1], coef.shape[-1]
    cols = coef.reshape(-1, n).T
    points, d = cols.shape[1], phi.shape[1]
    rows = min(n, max(_SUM_BLOCK_MIN_ROWS, _SUM_BLOCK // (points * d)))
    buf = np.zeros((rows + 1, points, d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[:stop - start + 1]
        np.einsum("ip,id->ipd", cols[start:stop], phi[start:stop], out=block[1:])
        buf[0] = np.add.reduce(block, 0)
    return buf[0].reshape(lead + (d,))


def _quad_gradient(obj, diff):
    """A (x - mean shift) from the difference, one product per row."""
    if obj.quad_matrix is None:
        return diff * obj.quad_diag
    return np.matmul(diff[..., None, :], obj.quad_matrix.T)[..., 0, :]


def _sigmoid(z):
    """1 / (1 + exp(-z)) without overflow: exp runs on min(z, -z) <= 0, which
    is -z where z >= 0 and z itself elsewhere (a NaN included), and one
    division puts 1 or exp(z) over 1 + exp, so each element sees the same
    IEEE operations as the two-branch form."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def batch_loss(obj, values, indices, *, weight_decay=0.0):
    """Mean per-sample loss over `indices`, a (B,) batch or a `range` (raw
    ndarray API), plus (`weight_decay`/2)||x||^2 at each point x.  For a
    `range`, `values` may be an (R, d) stack of points, and the result is the
    (R,) array whose entry r is bitwise the call at point r alone."""
    values = np.asarray(values, dtype=np.float64)
    rows = _sample_rows(obj, indices)
    if isinstance(rows, np.ndarray) and rows.ndim != 1:
        raise ValueError("batch_loss takes one batch of indices")
    _check_dim(obj, values, rows)
    if obj.kind == QUADRATIC:
        diffs = values[..., None, :] - _gather(obj.quad_shifts, rows)
        loss = 0.5 * np.sum(diffs * _quad_apply(obj, diffs), axis=-1).mean(axis=-1)
    elif obj.kind == LOGISTIC:
        margin = _gather(obj.logit_labels, rows) * np.matmul(
            _gather(obj.logit_features, rows), values[..., None])[..., 0]
        # log(1+exp(-m)) computed stably; the l2 term is one dot per point.
        loss = np.logaddexp(0.0, -margin).mean(axis=-1)
        loss = loss + row_dots(0.5 * obj.logit_l2 * values, values)
    else:
        _, _, resid = _mlp_forward(obj, values, rows)
        loss = 0.5 * np.sum(resid * resid, axis=-1).mean(axis=-1)
    if weight_decay != 0.0:
        loss = loss + 0.5 * weight_decay * row_dots(values, values)
    return float(loss) if values.ndim == 1 else loss


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

_PROBE_BUDGET = 16     # random gradient probes of a tiny_mlp's L


def estimate_constants(obj, x0, horizon_T=0, *, weight_decay=0.0):
    """Lipschitz constant L, variance bound sigma^2, f*, and r0 = f(x0) - f*.

    Quadratic: analytic (L = lambda_max(A); sigma^2 = max_i ||A(a_i - abar)||^2,
    which is x-independent).  Logistic: analytic L = 0.25 max_i ||phi_i||^2 + l2,
    brute-force sigma^2 at x0.  tiny_mlp: empirical estimates — sigma^2 brute
    force at x0, L from _PROBE_BUDGET random gradient probes around x0.

    With `weight_decay` lambda they are the constants of f + (lambda/2)||x||^2:
    L grows by lambda and r0 by (lambda/2)||x0||^2, while sigma^2 is unchanged
    (the decay term is the same in every sample).

    The constants are returned as measured, a non-finite one included, so a
    replay reports the bounds they give; `TheoryConstants.validate` refuses
    such a constant by name, as `harness.speedup_study` does before it tunes.
    """
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
        sigma2 = _sigma2_at(obj, x0)
        f_star = 0.0
    else:
        sigma2 = _sigma2_at(obj, x0)
        rng = np.random.default_rng(np.random.SeedSequence((obj.generator_seed, _PROBE_TAG)))
        g0 = batch_gradient(obj, x0, range(obj.sample_count))
        lip = 0.0
        for _ in range(_PROBE_BUDGET):
            direction = rng.standard_normal(obj.dimension)
            direction /= np.sqrt(row_dots(direction, direction))
            step = 0.1 * rng.uniform(0.5, 2.0)
            diff = batch_gradient(obj, x0 + step * direction, range(obj.sample_count)) - g0
            lip = max(lip, float(np.sqrt(row_dots(diff, diff)) / step))
        f_star = obj.mlp_f_star
    r0 = max(0.0, batch_loss(obj, x0, range(obj.sample_count)) - f_star)
    if weight_decay != 0.0:
        lip += weight_decay
        r0 += 0.5 * weight_decay * float(row_dots(x0, x0))
    return TheoryConstants(
        lipschitz_L=lip, variance_sigma2=sigma2, f_star=f_star, r0=r0,
        horizon_T=int(horizon_T))


# Doubles in one (n, d) block of per-sample gradients in `_sigma2_at`, and
# the bound on points * N * d of one stacked per-step metric call of
# `harness._run_trials`; a logistic call sums its products in blocks of
# `_SUM_BLOCK` doubles, the other kinds hold them all at once.
_SIGMA2_BLOCK = 2 ** 18
# Doubles in one block of a full-sample logistic gradient's per-sample
# products (`_sample_major_sum`), sized to stay in L2; a block has at least
# a few dozen samples, so a wide objective loops over few blocks in Python.
_SUM_BLOCK = 2 ** 16
_SUM_BLOCK_MIN_ROWS = 32


def _sigma2_at(obj, values):
    """max_i ||grad f_i - grad f||^2 at one point, brute force over all N.

    The per-sample gradients come from stacked oracle calls on (n, 1) index
    matrices, n rows of at most about _SIGMA2_BLOCK doubles at a time; row i
    is bitwise the call on [i], and the max skips a NaN as Python's does."""
    gbar = batch_gradient(obj, values, range(obj.sample_count))
    samples = np.arange(obj.sample_count)[:, None]
    rows = max(1, _SIGMA2_BLOCK // obj.dimension)
    worst = 0.0
    for start in range(0, obj.sample_count, rows):
        dev = batch_gradient(obj, values, samples[start:start + rows]) - gbar
        worst = np.fmax.reduce(row_dots(dev, dev), initial=worst)
    return float(worst)


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

