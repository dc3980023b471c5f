import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from exsgd.cluster import (_BLOCK, EPOCH_PERMUTATION, WITH_REPLACEMENT,
                           ClusterConfig, _blocks, draw_batches, map_workers,
                           reduce_mean)
from exsgd.objectives import make_quadratic


def test_config_defaults_and_validation():
    cfg = ClusterConfig(workers_K=4, local_batch_B=8)
    assert cfg.extrap_batch_b is None       # unset means the full local batch
    assert cfg.effective_extrap_b() == 8
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
    a = draw_batches(cfg, obj, 4)[0]
    b = draw_batches(cfg, obj, 4)[0]
    assert a.shape == (3, 5) and a.dtype == np.int64
    assert_array_equal(a, b)
    # different step or different seed gives different draws
    c = draw_batches(cfg, obj, 5)[0]
    d = draw_batches(ClusterConfig(workers_K=3, local_batch_B=5,
                                   master_seed=18), obj, 4)[0]
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    assert any(not np.array_equal(x, y) for x, y in zip(a, d))
    with pytest.raises(ValueError, match="^step t must be >= 0$"):
        draw_batches(cfg, obj, -1)


def test_workers_draw_distinct_streams():
    obj = make_quadratic(2, 1000)
    cfg = ClusterConfig(workers_K=2, local_batch_B=20, master_seed=3)
    k0, k1 = draw_batches(cfg, obj, 0)[0]
    assert not np.array_equal(k0, k1)


@given(seed=st.integers(0, 2**31 - 1), step=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_with_replacement_indices_in_range(seed, step):
    obj = make_quadratic(1, 7)
    cfg = ClusterConfig(workers_K=2, local_batch_B=3, master_seed=seed,
                        sampling_mode=WITH_REPLACEMENT)
    batches = draw_batches(cfg, obj, step)[0]
    assert np.all((0 <= batches) & (batches < 7))


def test_epoch_permutation_covers_every_sample():
    obj = make_quadratic(1, 12)
    cfg = ClusterConfig(workers_K=1, local_batch_B=3, master_seed=5,
                        sampling_mode=EPOCH_PERMUTATION)
    seen = np.concatenate([draw_batches(cfg, obj, t)[0, 0] for t in range(4)])
    assert sorted(seen) == list(range(12))


def test_epoch_permutation_straddles_epoch_boundary():
    # N=8, B=3: step 2 takes positions 6,7 from epoch 0 and 0 from epoch 1.
    obj = make_quadratic(1, 8)
    cfg = ClusterConfig(workers_K=1, local_batch_B=3, master_seed=9,
                        sampling_mode=EPOCH_PERMUTATION)
    draws = np.concatenate([draw_batches(cfg, obj, t)[0, 0] for t in range(8)])
    assert len(draws) == 24
    counts = np.bincount(draws, minlength=8)
    assert_array_equal(counts, 3)           # exactly three full epochs


def test_epoch_permutation_workers_independent():
    obj = make_quadratic(1, 64)
    cfg = ClusterConfig(workers_K=2, local_batch_B=32, master_seed=1,
                        sampling_mode=EPOCH_PERMUTATION)
    # every worker walks its own permutation over the full dataset
    k0, k1 = draw_batches(cfg, obj, 0)[0]
    assert len(set(k0)) == len(set(k1)) == 32
    assert not np.array_equal(k0, k1)       # distinct permutations
    k0_next = draw_batches(cfg, obj, 1)[0, 0]
    assert sorted(np.concatenate([k0, k0_next])) == list(range(64))


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
        batches = draw_batches(cfg, obj, t)[0]
        assert batches.dtype == np.int64
        for worker, row in enumerate(batches):
            assert_array_equal(row, reference(worker, t))


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
    _blocks.clear()
    cold = draw_batches(cfg, obj, t)[0]
    _blocks.clear()
    for s in range(t):
        draw_batches(cfg, obj, s)
    warm = draw_batches(cfg, obj, t)[0]
    assert_array_equal(cold, warm)
    cold[:] = -1                            # callers own their indices
    assert_array_equal(draw_batches(cfg, obj, t)[0], warm)


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
    for worker, row in enumerate(draw_batches(cfg, obj, t)[0]):
        # Reference: blocks are seeded by (seed, 21, worker, block).
        seq = np.concatenate([np.random.default_rng(np.random.SeedSequence(
            (seed, 21, worker, c))).integers(0, n, size=_BLOCK)
            for c in (boundary - 1, boundary)])
        start = t * batch - (boundary - 1) * _BLOCK
        assert_array_equal(row, seq[start:start + batch])


def test_reduce_mean_serial_accumulation_order():
    vecs = [np.array([0.1, 0.7]), np.array([0.2, -0.3]), np.array([0.3, 1.1])]
    got = reduce_mean(vecs)
    want = ((vecs[0] + vecs[1]) + vecs[2]) / 3.0
    assert_array_equal(got, want)           # bitwise: fixed ascending order
    assert_array_equal(reduce_mean(vecs[:1]), vecs[0])
    with pytest.raises(ValueError, match="^reduce_mean of empty input$"):
        reduce_mean([])
    with pytest.raises(ValueError, match="^reduce_mean dimension mismatch$"):
        reduce_mean([np.zeros(2), np.zeros(3)])


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


def _ascending_mean(rows):
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    return acc / len(rows)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -1e300, 1e300, np.inf]


@given(workers=st.integers(1, 64), dim=st.integers(1, 8),
       layout=st.sampled_from(["C", "F", "broadcast"]),
       seed=st.integers(0, 2**32 - 1), special=st.booleans(),
       trials=st.sampled_from([None, 1, 3]))
@example(workers=8, dim=1, layout="C", seed=0, special=False, trials=None)
@example(workers=64, dim=1, layout="C", seed=1, special=False, trials=None)
@example(workers=8, dim=3, layout="F", seed=2, special=False, trials=None)
@example(workers=3, dim=4, layout="C", seed=3, special=True, trials=None)
@example(workers=16, dim=1, layout="C", seed=4, special=False, trials=3)
@example(workers=16, dim=5, layout="F", seed=5, special=True, trials=3)
@settings(max_examples=150, deadline=None)
def test_reduce_mean_is_bitwise_the_ascending_add(workers, dim, layout, seed,
                                                  special, trials):
    # np.add.reduce sums pairwise for d = 1 and for Fortran order with
    # K >= 8, and starts from +0.0 unless given initial=None; reduce_mean
    # must stay the ascending add in every layout, signed zeros included,
    # and reduce each (K, d) row of an (R, K, d) stack on its own.
    rng = np.random.default_rng(seed)
    shape = (workers, dim) if trials is None else (trials, workers, dim)
    if special:
        rows = rng.choice(_SPECIAL, shape)
        rows[..., 0] = -0.0         # the ascending add keeps this sign
    else:
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if layout == "F":
        rows = np.asfortranarray(rows)
    elif layout == "broadcast":
        rows = np.broadcast_to(rows[..., :1, :], shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = reduce_mean(rows)
        if trials is None:
            want = _ascending_mean(rows)
            from_list = reduce_mean(list(rows))
        else:
            want = np.stack([_ascending_mean(stack) for stack in rows])
            from_list = want
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert_array_equal(from_list.view(np.uint64), want.view(np.uint64))


def _reference_batches(seed, mode, workers, batch, n, t):
    """Step t's batches from the per-worker block formula: worker k's
    sequence is its blocks seeded by (seed, tag, k, c), concatenated."""
    epoch = mode == EPOCH_PERMUTATION
    size = n if epoch else _BLOCK
    first, last = t * batch // size, (t * batch + batch - 1) // size
    rows = []
    for k in range(workers):
        seq = np.concatenate([
            np.random.default_rng(np.random.SeedSequence(
                (seed, 22 if epoch else 21, k, c))).permutation(n) if epoch
            else np.random.default_rng(np.random.SeedSequence(
                (seed, 21, k, c))).integers(0, n, size=_BLOCK)
            for c in range(first, last + 1)])
        start = t * batch - first * size
        rows.append(seq[start:start + batch])
    return np.stack(rows)


@given(seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 40),
       n=st.integers(1, 64), batch=st.integers(1, 64),
       mode=st.sampled_from([WITH_REPLACEMENT, EPOCH_PERMUTATION]),
       t=st.integers(0, 3 * _BLOCK), trials=st.integers(1, 6))
@example(seed=3, workers=40, n=50, batch=48, mode=WITH_REPLACEMENT, t=21,
         trials=1)
@example(seed=4, workers=33, n=7, batch=5, mode=EPOCH_PERMUTATION, t=4,
         trials=1)
@example(seed=5, workers=3, n=9, batch=4, mode=EPOCH_PERMUTATION, t=2,
         trials=6)
@settings(max_examples=40, deadline=None)
def test_draw_batches_is_the_per_worker_block_formula(seed, workers, n, batch,
                                                      mode, t, trials):
    batch = min(batch, n)
    obj = make_quadratic(1, n)
    cfg = ClusterConfig(workers_K=workers, local_batch_B=batch,
                        master_seed=seed, sampling_mode=mode)
    one = draw_batches(cfg, obj, t)     # the cluster's own seed: one trial
    assert one.shape == (1, workers, batch)
    got = one[0]
    assert got.shape == (workers, batch) and got.dtype == np.int64
    assert got.flags.writeable and got.flags.c_contiguous
    assert_array_equal(got, _reference_batches(seed, mode, workers, batch, n, t))
    # R trial seeds: their matrices along the trial axis, in seed order.
    seeds = [seed + 7 * r for r in range(trials)]
    stacked = draw_batches(cfg, obj, t, seeds)
    assert stacked.flags.writeable and stacked.flags.c_contiguous
    assert_array_equal(stacked, np.stack(
        [_reference_batches(s, mode, workers, batch, n, t) for s in seeds]))


def _single_seed_draws(cfg, obj, t, seeds):
    return np.stack([draw_batches(cfg, obj, t, [seed])[0] for seed in seeds])


@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
       others=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
       workers=st.integers(1, 3), n=st.integers(1, 64), batch=st.integers(1, 64),
       mode=st.sampled_from([WITH_REPLACEMENT, EPOCH_PERMUTATION]),
       t=st.integers(0, 3 * _BLOCK),
       keep=st.lists(st.booleans(), min_size=6, max_size=6))
@example(seeds=[1, 2, 3], others=[4, 5], workers=2, n=64, batch=48,
         mode=WITH_REPLACEMENT, t=20, keep=[True, False, True] * 2)
@example(seeds=[6, 7, 8, 9, 10, 11], others=[6], workers=3, n=7, batch=5,
         mode=EPOCH_PERMUTATION, t=3, keep=[False] * 5 + [True])
@settings(max_examples=40, deadline=None)
def test_stacked_draws_are_the_single_seed_draws_in_any_cache_state(
        seeds, others, workers, n, batch, mode, t, keep):
    # The (R, K, block) cache entries are keyed by the seed tuple: two
    # chunks' draws interleaved, a draw under some of a chunk's seeds right
    # after the chunk's own, and writes into an earlier result never change a
    # draw.
    # The examples' step t + 1 straddles a block boundary.
    batch = min(batch, n)
    obj = make_quadratic(1, n)
    cfg = ClusterConfig(workers_K=workers, local_batch_B=batch, sampling_mode=mode)
    _blocks.clear()
    want = {(tuple(chunk), s): _single_seed_draws(cfg, obj, s, chunk)
            for chunk in (seeds, others) for s in (t, t + 1)}
    _blocks.clear()
    for s in (t, t + 1):
        for chunk in (seeds, others):
            got = draw_batches(cfg, obj, s, chunk)
            assert got.shape == (len(chunk), workers, batch)
            assert got.flags.writeable and got.flags.c_contiguous
            assert_array_equal(got, want[tuple(chunk), s])
            got[:] = -1                     # callers own their indices
        assert_array_equal(draw_batches(cfg, obj, s, seeds),
                           want[tuple(seeds), s])
    rows = [r for r in range(len(seeds)) if keep[r]] or [len(seeds) - 1]
    shrunk = [seeds[r] for r in rows]
    assert_array_equal(draw_batches(cfg, obj, t + 1, shrunk),
                       want[tuple(seeds), t + 1][rows])
    assert_array_equal(draw_batches(cfg, obj, t + 2, shrunk),
                       _single_seed_draws(cfg, obj, t + 2, shrunk))
