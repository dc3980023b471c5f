"""
Simulated cluster of K synchronous workers.

Each worker k reads its batches from one endless index sequence, and the batch
of step t is positions [tB, (t+1)B) of that sequence; `draw_batches` returns
step t's batches as one (K, B) int64 matrix whose row k is worker k's batch.
The sequence is a concatenation of seeded blocks, each a pure function of
(master_seed, worker, block):

* epoch permutation: block e is a fresh permutation of all N samples, so
  every epoch visits each sample once;
* with replacement: block c holds _BLOCK indices drawn uniformly from [0, N).

A batch may straddle a block boundary.  Because blocks depend only on their
seed tuple, replaying any (config, t) reproduces the same batches in any
access order, batches at step t never depend on how many steps ran before,
and worker k never touches its neighbours' streams.  Block c of all K workers
is kept as one read-only (K, block size) matrix, whose row k is worker k's
block, in a small cache: a run generates each block once instead of once per
step, and a step's batches are one slice copy of that matrix (a straddling
batch joins consecutive matrices along the position axis), so every call
returns a fresh matrix the caller owns.

The gradient reduction is a plain ascending-worker-order serial mean over
the K rows of a (K, d) array (or a list of K vectors): floating-point
determinism outranks reduction speed at desk scale.  The step engine
evaluates all K workers in one stacked call, so no step uses threads.
"""

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

WITH_REPLACEMENT = "with_replacement"
EPOCH_PERMUTATION = "epoch_permutation"

_BATCH_TAG = 21
_PERM_TAG = 22

# Indices per with-replacement block: one seeded generator serves
# _BLOCK // B steps of a worker.
_BLOCK = 1024
# Cached block matrices.  A step reads one, or the next few where its batch
# straddles a boundary, and the next step reads the last of them again; an
# epoch block matrix holds K * N int64 indices.
_CACHE_BLOCKS = 4


@dataclass
class ClusterConfig:
    workers_K: int = 1
    local_batch_B: int = 1
    extrap_batch_b: int = None   # None means B
    sampling_mode: str = WITH_REPLACEMENT
    master_seed: int = 0

    def effective_extrap_b(self):
        """b, the leading share of each batch whose mean gradient a worker
        stores as its past gradient; the whole batch B when unset."""
        if self.extrap_batch_b is None:
            return self.local_batch_B
        return self.extrap_batch_b

    def validate(self, obj=None):
        if self.workers_K < 1:
            raise ValueError("workers_K must be >= 1")
        if self.local_batch_B < 1:
            raise ValueError("local_batch_B must be >= 1")
        if (self.extrap_batch_b is not None
                and not 1 <= self.extrap_batch_b <= self.local_batch_B):
            raise ValueError("extrap_batch_b must satisfy 1 <= b <= B")
        if self.sampling_mode not in (WITH_REPLACEMENT, EPOCH_PERMUTATION):
            raise ValueError(f"unknown sampling_mode {self.sampling_mode!r}")
        if obj is not None and self.local_batch_B > obj.sample_count:
            raise ValueError(
                f"local_batch_B={self.local_batch_B} exceeds sample_count={obj.sample_count}"
            )
        return self


@functools.lru_cache(maxsize=_CACHE_BLOCKS)
def _block(master_seed, mode, workers, block, n):
    """Block `block` of every worker's index sequence as a read-only
    (workers, block size) matrix (it is shared); row k is worker k's block."""
    epoch = mode == EPOCH_PERMUTATION
    rows = np.empty((workers, n if epoch else _BLOCK), dtype=np.int64)
    for k in range(workers):
        rng = np.random.default_rng(np.random.SeedSequence(
            (master_seed, _PERM_TAG if epoch else _BATCH_TAG, k, block)))
        rows[k] = rng.permutation(n) if epoch else rng.integers(0, n, size=_BLOCK)
    rows.setflags(write=False)
    return rows


def draw_batches(cfg, obj, t):
    """The (K, B) int64 index matrix of step t; row k is worker k's batch.
    Streams are independent per worker and replaying (cfg, t) yields
    identical indices."""
    if t < 0:
        raise ValueError("step t must be >= 0")
    cfg.validate(obj)
    n, b, mode = obj.sample_count, cfg.local_batch_B, cfg.sampling_mode
    size = n if mode == EPOCH_PERMUTATION else _BLOCK
    first, offset = divmod(t * b, size)
    last = (t * b + b - 1) // size
    seed, workers = cfg.master_seed, cfg.workers_K
    seq = _block(seed, mode, workers, first, n)
    if last > first:        # the batch straddles a block boundary
        seq = np.concatenate([seq] + [_block(seed, mode, workers, c, n)
                                      for c in range(first + 1, last + 1)],
                             axis=1)
    return seq[:, offset:offset + b].copy()


def reduce_mean(vectors):
    """Arithmetic mean accumulated in ascending worker-index order.

    A C-ordered (K, d) array with d >= 2 is reduced in one call: numpy
    adds its rows into the output row in ascending order, starting from a
    copy of row 0 (`initial=None`, which keeps the sign of a zero), so the
    result is bitwise the loop below.  For d = 1 and for other layouts numpy
    may sum pairwise, so those, and lists, take the loop.
    """
    if len(vectors) == 0:
        raise ValueError("reduce_mean of empty input")
    if (isinstance(vectors, np.ndarray) and vectors.ndim == 2
            and vectors.shape[1] >= 2 and vectors.flags.c_contiguous):
        return np.add.reduce(vectors, axis=0, initial=None) / len(vectors)
    dim = vectors[0].shape
    acc = vectors[0].copy()
    for vec in vectors[1:]:
        if vec.shape != dim:
            raise ValueError("reduce_mean dimension mismatch")
        acc += vec
    return acc / len(vectors)


def map_workers(fn, items, threads=1):
    """Evaluate fn over items, optionally on a thread pool, preserving order.

    No step calls this any more; it stays because benchmark/tracer.py patches
    `optimizers.map_workers`.

    Per-worker evaluations are independent, so the results (and anything
    reduced from them) do not depend on the thread count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
