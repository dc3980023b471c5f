"""
Simulated cluster of K synchronous workers.

Each worker k reads its batches from one endless index sequence, and the batch
of step t is positions [tB, (t+1)B) of that sequence.  `draw_batches` serves
the R trials of a chunk at once: it returns step t's batches as one
(R, K, B) int64 tensor whose entry [r, k] is worker k's batch in the cluster
seeded by trial r's seed.  The sequence is a concatenation of seeded blocks,
each a pure function of (master_seed, worker, block):

* epoch permutation: block e is a fresh permutation of all N samples, so
  every epoch visits each sample once;
* with replacement: block c holds _BLOCK indices drawn uniformly from [0, N).

A batch may straddle a block boundary.  Because blocks depend only on their
seed tuple, replaying any (config, t) reproduces the same batches in any
access order, batches at step t never depend on how many steps ran before,
and worker k never touches its neighbours' streams.  Block c of the R
streams a call reads is kept as one read-only (R, K, block size) tensor,
whose entry [r, k] is worker k's block in the cluster seeded by trial r's
seed, in a small cache keyed by the tuple of trial seeds: a chunk generates
each block once instead of once per step, and a step copies its slice of
that tensor (or joins the consecutive tensors a straddling batch spans) into
one fresh tensor the caller owns.  A chunk reads every step under the one
seed tuple of all its trials, also after some have aborted or stopped.

The gradient reduction is a plain ascending-worker-order serial mean over
the K rows of a (K, d) array (or a list of K vectors), or over each trial's K
rows of an (R, K, d) stack: floating-point determinism outranks reduction
speed at desk scale.  The step engine evaluates all K workers in one stacked
call, so no step uses threads; only a wide run's full-sample metric passes
run on a helper thread, beside the steps (see `harness`).
"""

from dataclasses import dataclass

import numpy as np

WITH_REPLACEMENT = "with_replacement"
EPOCH_PERMUTATION = "epoch_permutation"

_BATCH_TAG = 21
_PERM_TAG = 22

# Indices per with-replacement block: one seeded generator serves
# _BLOCK // B steps of a worker.
_BLOCK = 1024
# Cached block tensors.  A step reads one, or the next few where its batch
# straddles a boundary, and the next step reads the last of them again; an
# epoch block tensor holds R * K * N int64 indices.
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


# (seeds, mode, workers, n, block) -> block tensor, oldest first.
_blocks = {}


def _block(seeds, mode, workers, block, n):
    """Block `block` of every worker's index sequence in the clusters seeded
    by the tuple `seeds`, as a read-only (R, workers, block size) tensor (it
    is shared) whose entry [r, k] is worker k's block under `seeds[r]`.  The
    cache keeps the `_CACHE_BLOCKS` newest: a call reads its blocks in
    ascending order."""
    key = (seeds, mode, workers, n, block)
    rows = _blocks.get(key)
    if rows is None:
        rows = np.stack([_new_block(seed, mode, workers, block, n)
                         for seed in seeds])
        rows.setflags(write=False)
        _blocks[key] = rows
        while len(_blocks) > _CACHE_BLOCKS:
            del _blocks[next(iter(_blocks))]
    return rows


def cached_indices(cfg, obj):
    """The int64 indices the block cache may keep for one stream: its share
    of the `_CACHE_BLOCKS` newest block tensors, all K workers' blocks."""
    size = obj.sample_count if cfg.sampling_mode == EPOCH_PERMUTATION else _BLOCK
    return _CACHE_BLOCKS * cfg.workers_K * size


def _new_block(master_seed, mode, workers, block, n):
    epoch = mode == EPOCH_PERMUTATION
    rows = np.empty((workers, n if epoch else _BLOCK), dtype=np.int64)
    for k in range(workers):
        rng = np.random.default_rng(np.random.SeedSequence(
            (master_seed, _PERM_TAG if epoch else _BATCH_TAG, k, block)))
        rows[k] = rng.permutation(n) if epoch else rng.integers(0, n, size=_BLOCK)
    return rows


def draw_batches(cfg, obj, t, seeds=None):
    """The (R, K, B) int64 index tensor of step t for the R trial `seeds`:
    entry [r, k] is worker k's batch in the cluster seeded `seeds[r]`.
    Streams are independent per worker and replaying (cfg, t) yields
    identical indices.  Without `seeds` it is the (1, K, B) tensor of the
    cluster seeded `cfg.master_seed`, which is otherwise not read."""
    if t < 0:
        raise ValueError("step t must be >= 0")
    cfg.validate(obj)
    n, b, mode = obj.sample_count, cfg.local_batch_B, cfg.sampling_mode
    size = n if mode == EPOCH_PERMUTATION else _BLOCK
    first, offset = divmod(t * b, size)
    last = (t * b + b - 1) // size
    seeds = (cfg.master_seed,) if seeds is None else tuple(seeds)
    workers = cfg.workers_K
    seq = _block(seeds, mode, workers, first, n)
    if last == first:
        return seq[..., offset:offset + b].copy()
    # The batch straddles a block boundary: join its pieces of each block.
    parts = [seq[..., offset:]]
    parts += [_block(seeds, mode, workers, c, n) for c in range(first + 1, last + 1)]
    parts[-1] = parts[-1][..., :offset + b - (last - first) * size]
    return np.concatenate(parts, axis=-1)


def reduce_mean(vectors):
    """Arithmetic mean accumulated in ascending worker-index order.

    A C-ordered (K, d) array with d >= 2 is reduced in one call: numpy
    adds its rows into the output row in ascending order, starting from a
    copy of row 0 (`initial=None`, which keeps the sign of a zero), so the
    result is bitwise the loop below.  For d = 1 and for other layouts numpy
    may sum pairwise, so those, and lists, take the loop.  A stack of shape
    (..., K, d) is reduced over its K axis the same way, to (..., d): entry
    r of an (R, K, d) stack's mean is bitwise the mean of its (K, d) row r.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim >= 2:
        count = vectors.shape[-2]
        if count and vectors.shape[-1] >= 2 and vectors.flags.c_contiguous:
            return np.add.reduce(vectors, axis=-2, initial=None) / count
        vectors = np.moveaxis(vectors, -2, 0)    # the loop runs over axis 0
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
    """[fn(item) for item in items], in order; `threads` has no effect.

    No step calls this any more; it stays, with its signature, because
    benchmark/tracer.py patches `optimizers.map_workers`.
    """
    return [fn(item) for item in items]
