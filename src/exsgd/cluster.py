"""
Simulated cluster of K synchronous workers.

Each worker k reads its batches from one endless index sequence, and the batch
of step t is positions [tB, (t+1)B) of that sequence.  The sequence is a
concatenation of seeded blocks, each a pure function of
(master_seed, worker, block):

* epoch permutation: block e is a fresh permutation of all N samples, so
  every epoch visits each sample once;
* with replacement: block c holds _BLOCK indices drawn uniformly from [0, N).

A batch may straddle a block boundary.  Because blocks depend only on their
seed tuple, replaying any (config, t) reproduces the same batches in any
access order, batches at step t never depend on how many steps ran before,
and worker k never touches its neighbours' streams.  Recently used blocks are
kept read-only in a small cache, so a run generates each block once instead
of once per step, and every batch gets its own copy of its indices.

The gradient reduction is a plain ascending-worker-order serial mean:
floating-point determinism outranks reduction speed at desk scale, and the
result is independent of how many evaluation threads computed the inputs.
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
# Cached blocks.  A step touches one block per worker (two where a batch
# straddles), so this covers clusters of up to 32 workers; an epoch block
# holds N int64 indices.
_CACHE_BLOCKS = 64


@dataclass
class ClusterConfig:
    workers_K: int = 1
    local_batch_B: int = 1
    extrap_batch_b: int = None   # defaults to B
    sampling_mode: str = WITH_REPLACEMENT
    master_seed: int = 0

    def __post_init__(self):
        if self.extrap_batch_b is None:
            self.extrap_batch_b = self.local_batch_B

    def validate(self, obj=None):
        if self.workers_K < 1:
            raise ValueError("workers_K must be >= 1")
        if self.local_batch_B < 1:
            raise ValueError("local_batch_B must be >= 1")
        if not 1 <= self.extrap_batch_b <= self.local_batch_B:
            raise ValueError("extrap_batch_b must satisfy 1 <= b <= B")
        if self.sampling_mode not in (WITH_REPLACEMENT, EPOCH_PERMUTATION):
            raise ValueError(f"unknown sampling_mode {self.sampling_mode!r}")
        if obj is not None and self.local_batch_B > obj.sample_count:
            raise ValueError(
                f"local_batch_B={self.local_batch_B} exceeds sample_count={obj.sample_count}"
            )
        return self


@dataclass
class SampleBatch:
    worker: int
    step: int
    indices: np.ndarray


@functools.lru_cache(maxsize=_CACHE_BLOCKS)
def _block(master_seed, mode, worker, block, n):
    """Block `block` of worker's index sequence, read-only (it is shared)."""
    epoch = mode == EPOCH_PERMUTATION
    rng = np.random.default_rng(np.random.SeedSequence(
        (master_seed, _PERM_TAG if epoch else _BATCH_TAG, worker, block)))
    idx = rng.permutation(n) if epoch else rng.integers(0, n, size=_BLOCK)
    idx.setflags(write=False)
    return idx


def draw_batches(cfg, obj, t):
    """The K batches for step t.  Streams are independent per worker and
    replaying (cfg, t) yields identical indices."""
    if t < 0:
        raise ValueError("step t must be >= 0")
    cfg.validate(obj)
    n, b, mode = obj.sample_count, cfg.local_batch_B, cfg.sampling_mode
    size = n if mode == EPOCH_PERMUTATION else _BLOCK
    first, offset = divmod(t * b, size)
    last = (t * b + b - 1) // size
    seed = cfg.master_seed
    batches = []
    for k in range(cfg.workers_K):
        seq = _block(seed, mode, k, first, n)
        if last > first:        # the batch straddles a block boundary
            seq = np.concatenate([seq] + [_block(seed, mode, k, c, n)
                                          for c in range(first + 1, last + 1)])
        idx = seq[offset:offset + b].astype(np.int64)   # a private copy
        batches.append(SampleBatch(worker=k, step=t, indices=idx))
    return batches


def reduce_mean(vectors):
    """Arithmetic mean accumulated in ascending worker-index order."""
    if len(vectors) == 0:
        raise ValueError("reduce_mean of empty input")
    dim = vectors[0].shape
    acc = vectors[0].copy()
    for vec in vectors[1:]:
        if vec.shape != dim:
            raise ValueError("reduce_mean dimension mismatch")
        acc += vec
    return acc / len(vectors)


def map_workers(fn, items, threads=1):
    """Evaluate fn over items, optionally on a thread pool, preserving order.

    Per-worker evaluations are independent, so the results (and anything
    reduced from them) do not depend on the thread count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
