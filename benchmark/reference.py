"""Fixed reference computations that measure the machine's momentary speed.

The benchmark runs on shared virtual machines whose speed drifts by 20 % and
more over tens of seconds (co-tenants, not the program).  Timing a fixed
computation between operations and scaling each operation's time by
nominal_s / (reference time around it) turns wall seconds into seconds at a
fixed nominal machine speed.  The references do not call exsgd, so a change to
the program cannot move them.

Two kinds, so that each workload is scaled by work that slows down the way its
own work does:

- "mixed": many small seeded numpy calls plus a few row gathers with small
  tanh matmuls (per-call overhead, like `theory_gate` and `cli_threads`);
- "arrays": row gathers from a 16 MiB table with small tanh matmuls (oracle
  arithmetic on a working set beyond L2, like `wide_models`);
- "pooled": the "mixed" work plus small calls dispatched four at a time
  through a fresh two-thread pool, as `map_workers` does on every step
  (`cli_threads`), so the second vCPU's availability is measured too.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Seconds one measure() takes on the 2-vCPU machine described in README.md;
# constants, so normalized times compare across commits.
NOMINAL_S = {"mixed": 0.025, "arrays": 0.016, "pooled": 0.041}
POOL_THREADS = 2


class Reference:
    """Create once per run; `measure()` returns the seconds of one pass."""

    def __init__(self, kind):
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(12345)
        rows = 8192 if kind == "arrays" else 2048
        self.table = rng.standard_normal((rows, 256))
        self.small = rng.standard_normal((48, 6))
        self.w1 = rng.standard_normal((64, 32))
        self.w2 = rng.standard_normal((64, 64))
        self.small_calls, self.gathers, self.pool_steps = {
            "mixed": (600, 40, 0), "arrays": (0, 60, 0), "pooled": (600, 40, 20)}[kind]

    def _small_call(self, i):
        rng = np.random.default_rng(np.random.SeedSequence((7, 21, i % 4, i)))
        idx = rng.integers(0, 48, size=16)
        return float(np.mean(self.small[idx], axis=0) @ self.small[i % 48])

    def _work(self):
        acc = sum(self._small_call(i) for i in range(self.small_calls))
        for step in range(self.pool_steps):
            with ThreadPoolExecutor(max_workers=POOL_THREADS) as pool:
                acc += sum(pool.map(self._small_call, range(4 * step, 4 * step + 4)))
        rng = np.random.default_rng(3)
        for _ in range(self.gathers):
            rows = self.table[rng.permutation(len(self.table))[:128]]
            h = np.tanh(rows[:, :32] @ self.w1.T)
            acc += float(np.tanh(h @ self.w2.T).sum() + rows.sum())
        return acc

    def measure(self):
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
