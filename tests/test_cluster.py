import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from exsgd.cluster import (_BLOCK, EPOCH_PERMUTATION, WITH_REPLACEMENT,
                           ClusterConfig, _block, draw_batches, map_workers,
                           reduce_mean)
from exsgd.objectives import make_quadratic


def test_config_defaults_and_validation():
    cfg = ClusterConfig(workers_K=4, local_batch_B=8)
    assert cfg.extrap_batch_b == 8          # defaults to the full local batch
    cfg.validate()
    with pytest.raises(ValueError):
        ClusterConfig(workers_K=0, local_batch_B=1).validate()
    with pytest.raises(ValueError):
        ClusterConfig(workers_K=1, local_batch_B=4, extrap_batch_b=5).validate()
    with pytest.raises(ValueError):
        ClusterConfig(workers_K=1, local_batch_B=1,
                      sampling_mode="bogus").validate()


def test_draw_batches_shape_and_determinism():
    obj = make_quadratic(2, 32)
    cfg = ClusterConfig(workers_K=3, local_batch_B=5, master_seed=17)
    a = draw_batches(cfg, obj, 4)
    b = draw_batches(cfg, obj, 4)
    assert len(a) == 3 and all(len(sb.indices) == 5 for sb in a)
    assert [sb.worker for sb in a] == [0, 1, 2]
    assert all(sb.step == 4 for sb in a)
    for x, y in zip(a, b):
        assert_array_equal(x.indices, y.indices)
    # different step or different seed gives different draws
    c = draw_batches(cfg, obj, 5)
    d = draw_batches(ClusterConfig(workers_K=3, local_batch_B=5,
                                   master_seed=18), obj, 4)
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, d))


def test_workers_draw_distinct_streams():
    obj = make_quadratic(2, 1000)
    cfg = ClusterConfig(workers_K=2, local_batch_B=20, master_seed=3)
    k0, k1 = draw_batches(cfg, obj, 0)
    assert not np.array_equal(k0.indices, k1.indices)


@given(seed=st.integers(0, 2**31 - 1), step=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_with_replacement_indices_in_range(seed, step):
    obj = make_quadratic(1, 7)
    cfg = ClusterConfig(workers_K=2, local_batch_B=3, master_seed=seed,
                        sampling_mode=WITH_REPLACEMENT)
    for sb in draw_batches(cfg, obj, step):
        assert np.all((0 <= sb.indices) & (sb.indices < 7))


def test_epoch_permutation_covers_every_sample():
    obj = make_quadratic(1, 12)
    cfg = ClusterConfig(workers_K=1, local_batch_B=3, master_seed=5,
                        sampling_mode=EPOCH_PERMUTATION)
    seen = np.concatenate([draw_batches(cfg, obj, t)[0].indices for t in range(4)])
    assert sorted(seen) == list(range(12))


def test_epoch_permutation_straddles_epoch_boundary():
    # N=8, B=3: step 2 takes positions 6,7 from epoch 0 and 0 from epoch 1.
    obj = make_quadratic(1, 8)
    cfg = ClusterConfig(workers_K=1, local_batch_B=3, master_seed=9,
                        sampling_mode=EPOCH_PERMUTATION)
    draws = np.concatenate([draw_batches(cfg, obj, t)[0].indices for t in range(8)])
    assert len(draws) == 24
    counts = np.bincount(draws, minlength=8)
    assert_array_equal(counts, 3)           # exactly three full epochs


def test_epoch_permutation_workers_independent():
    obj = make_quadratic(1, 64)
    cfg = ClusterConfig(workers_K=2, local_batch_B=32, master_seed=1,
                        sampling_mode=EPOCH_PERMUTATION)
    # every worker walks its own permutation over the full dataset
    k0, k1 = draw_batches(cfg, obj, 0)
    assert len(set(k0.indices)) == len(set(k1.indices)) == 32
    assert not np.array_equal(k0.indices, k1.indices)   # distinct permutations
    k0_next = draw_batches(cfg, obj, 1)[0]
    assert sorted(np.concatenate([k0.indices, k0_next.indices])) == list(range(64))


def test_epoch_mode_matches_per_step_permutation_formula():
    # Reference: each step rebuilds the permutation of every epoch its batch
    # covers, seeded by (seed, 22, worker, epoch).  Pins epoch-mode bytes.
    n, B, K, seed = 8, 3, 2, 9
    obj = make_quadratic(1, n)
    cfg = ClusterConfig(workers_K=K, local_batch_B=B, master_seed=seed,
                        sampling_mode=EPOCH_PERMUTATION)

    def reference(worker, t):
        positions = np.arange(t * B, (t + 1) * B)
        idx = np.empty(B, dtype=np.int64)
        for epoch in np.unique(positions // n):
            perm = np.random.default_rng(np.random.SeedSequence(
                (seed, 22, worker, int(epoch)))).permutation(n)
            mask = positions // n == epoch
            idx[mask] = perm[positions[mask] % n]
        return idx

    for t in range(10):
        for sb in draw_batches(cfg, obj, t):
            assert sb.indices.dtype == np.int64
            assert_array_equal(sb.indices, reference(sb.worker, t))


@given(seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 3),
       n=st.integers(1, 64), mode=st.sampled_from([WITH_REPLACEMENT,
                                                   EPOCH_PERMUTATION]),
       t=st.integers(0, 120), data=st.data())
@settings(max_examples=40, deadline=None)
def test_stream_is_prefix_stable_and_private(seed, workers, n, mode, t, data):
    batch = data.draw(st.integers(1, n), label="B")
    obj = make_quadratic(1, n)
    cfg = ClusterConfig(workers_K=workers, local_batch_B=batch,
                        master_seed=seed, sampling_mode=mode)
    _block.cache_clear()
    cold = draw_batches(cfg, obj, t)
    _block.cache_clear()
    for s in range(t):
        draw_batches(cfg, obj, s)
    warm = draw_batches(cfg, obj, t)
    for x, y in zip(cold, warm):
        assert_array_equal(x.indices, y.indices)
        x.indices[:] = -1                   # callers own their indices
    for x, y in zip(draw_batches(cfg, obj, t), warm):
        assert_array_equal(x.indices, y.indices)


@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 64),
       boundary=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_with_replacement_batches_straddle_blocks(seed, batch, boundary):
    edge = boundary * _BLOCK
    assume(edge % batch)
    n = 64
    obj = make_quadratic(1, n)
    cfg = ClusterConfig(workers_K=2, local_batch_B=batch, master_seed=seed)
    t = edge // batch                       # this step's batch covers `edge`
    for sb in draw_batches(cfg, obj, t):
        # Reference: blocks are seeded by (seed, 21, worker, block).
        seq = np.concatenate([np.random.default_rng(np.random.SeedSequence(
            (seed, 21, sb.worker, c))).integers(0, n, size=_BLOCK)
            for c in (boundary - 1, boundary)])
        start = t * batch - (boundary - 1) * _BLOCK
        assert_array_equal(sb.indices, seq[start:start + batch])


def test_reduce_mean_serial_accumulation_order():
    vecs = [np.array([0.1, 0.7]), np.array([0.2, -0.3]), np.array([0.3, 1.1])]
    got = reduce_mean(vecs)
    want = ((vecs[0] + vecs[1]) + vecs[2]) / 3.0
    assert_array_equal(got, want)           # bitwise: fixed ascending order
    assert_array_equal(reduce_mean(vecs[:1]), vecs[0])


def test_map_workers_threaded_matches_serial():
    items = list(range(20))
    fn = lambda i: np.sqrt(np.float64(i)) * 3.0
    serial = map_workers(fn, items, threads=1)
    pooled = map_workers(fn, items, threads=4)
    assert serial == pooled                 # order and values preserved


def test_map_workers_actually_uses_threads():
    seen = set()

    def record(i):
        seen.add(threading.get_ident())
        return i

    out = map_workers(record, list(range(200)), threads=4)
    assert out == list(range(200))
