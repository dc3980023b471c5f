"""Span tracer that wraps exsgd's public functions from outside the package.

Each wrapped call opens a span; a span's self time is its duration minus the
time covered by the union of its child spans.  Calls that run on the pool
threads of `cluster.map_workers` are children of the `map_workers` span that
dispatched them.  Because pool-thread children can run side by side, their
durations can sum to more than the interval they cover; that excess is kept as
`overlap_s`, so that

    sum(self_s) - overlap_s == sum of the outermost spans' durations

holds exactly and the per-layer split accounts for the traced wall time.

The tracer patches names in the modules that *call* each function (for example
`exsgd.optimizers.batch_gradient` and `exsgd.harness.batch_gradient`), so one
objective function is split by caller, and nothing under `src/` changes.
Finished spans go to an in-memory log (appends are atomic, so pool threads
need no lock) and are aggregated after the traced round.
"""

import threading
import time
from collections import defaultdict

STEP_FUNCTIONS = ("step_minibatch_sgd", "step_nesterov", "step_extrap_sgd",
                  "step_extrapolated_noise", "step_adam", "step_extrap_adam",
                  "step_post_local")
REPLAY_FUNCTIONS = ("build_virtual_sequence", "check_descent_identity",
                    "check_proximity_inequalities", "rate_bound",
                    "finish_report")
# (exsgd submodule that calls the function, attribute, layer name)
PLAIN_SITES = (
    [("harness", "draw_batches", "cluster.draw_batches"),
     ("harness", "batch_loss", "objectives.batch_loss"),
     ("harness", "estimate_constants", "objectives.estimate_constants"),
     ("cli", "load_config", "cli.load_config"),
     ("cli", "main", "cli.main")]
    + [("harness", name, "optimizers.step") for name in STEP_FUNCTIONS]
    + [("theory", name, "theory.replay") for name in REPLAY_FUNCTIONS]
)
SAMPLE_SITES = (("optimizers", "batch_gradient", "objectives.batch_gradient.step"),
                ("harness", "batch_gradient", "objectives.batch_gradient.metrics"))
REDUCE_SITES = (("optimizers", "reduce_mean", "cluster.reduce_mean"),
                ("harness", "reduce_mean", "cluster.reduce_mean"))


class _Span:
    __slots__ = ("name", "start", "children", "parent")

    def __init__(self, name, parent):
        self.name = name
        self.children = []
        self.parent = parent


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans of the patched functions; one per traced run."""

    def __init__(self, package):
        self.package = package
        self._local = threading.local()
        self._patches = []
        self.reset()

    def reset(self):
        # (name, duration, covered by children, sum of child durations,
        #  extra count, is outermost)
        self.log = []
        self.results = []
        self.out_dirs = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _enter(self, name):
        stack = self._stack()
        span = _Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span, extra=0):
        end = time.perf_counter()
        self._stack().pop()
        children = span.children
        if children:
            child_sum = sum(e - s for s, e in children)
            covered = child_sum if len(children) == 1 else _covered(children)
        else:
            child_sum = covered = 0.0
        parent = span.parent
        self.log.append((span.name, end - span.start, covered, child_sum,
                         extra, parent is None))
        if parent is not None:
            parent.children.append((span.start, end))

    def aggregate(self):
        """Per-name calls, self seconds, extra counts and durations, plus the
        total overlap and the summed duration of the outermost spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        extra = defaultdict(int)
        durations = defaultdict(list)
        overlap = outer = 0.0
        for name, dur, covered, child_sum, count, outermost in self.log:
            calls[name] += 1
            self_s[name] += dur - covered
            extra[name] += count
            durations[name].append(dur)
            overlap += child_sum - covered
            if outermost:
                outer += dur
        return {"calls": dict(calls), "self": dict(self_s), "extra": dict(extra),
                "durations": dict(durations), "overlap": overlap, "outer": outer}

    # -- patching --------------------------------------------------------

    def _set(self, module_name, attr, make_wrapper):
        module = getattr(self.package, module_name)
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        enter, exit_ = self._enter, self._exit

        def spanned(name, count=None):
            def make(original):
                def wrapper(*args, **kwargs):
                    span = enter(name)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        exit_(span, count(*args) if count else 0)
                return wrapper
            return make

        def samples(obj, values, indices):
            return len(indices)

        def input_bytes(vectors):
            return sum(v.nbytes for v in vectors)

        for mod, attr, name in PLAIN_SITES:
            self._set(mod, attr, spanned(name))
        for mod, attr, name in SAMPLE_SITES:
            self._set(mod, attr, spanned(name, samples))
        for mod, attr, name in REDUCE_SITES:
            self._set(mod, attr, spanned(name, input_bytes))
        self._set("harness", "run", self._keeping_results)
        self._set("harness", "write_outputs", self._keeping_out_dirs)
        self._set("optimizers", "map_workers", self._traced_map_workers)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _keeping_results(self, original):
        def run(config, threads=1):
            span = self._enter("harness.run")
            try:
                result = original(config, threads)
            finally:
                self._exit(span)
            self.results.append(result)
            return result
        return run

    def _keeping_out_dirs(self, original):
        def write_outputs(result, out_dir):
            span = self._enter("harness.write_outputs")
            try:
                original(result, out_dir)
            finally:
                self._exit(span)
            self.out_dirs.append(out_dir)
        return write_outputs

    def _traced_map_workers(self, original):
        def map_workers(fn, items, threads=1):
            span = self._enter("cluster.map_workers")

            def under_span(item):
                # On a pool thread the dispatching span is the parent.
                stack = self._stack()
                stack.append(span)
                try:
                    return fn(item)
                finally:
                    stack.pop()
            try:
                return original(under_span, items, threads)
            finally:
                self._exit(span)
        return map_workers
