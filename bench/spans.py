"""Spans around the calls into each bpve module, recorded from outside.

:class:`Tracer` patches module and class attributes of an imported
``bpve`` so that each wrapped call records a span ``(name, op, start_ns,
end_ns, parent, thread, count, count2)`` in memory; ``dump`` writes
them once the run ends.  :func:`layer_metrics` turns the spans of one pass
into the per-layer metrics.

Self time of a span is its duration minus the part of it covered by its
child spans, on any thread; busy time is summed across worker threads.
Worker threads of the block pool get their own ``estimators.block`` spans
(parented to the estimator call that submitted them), so estimator work
outside ``distributions`` and ``streams`` calls -- including the
Gaussian-mixer path that samples without ``sample_generation_totals`` --
shows up as ``estimators`` self time.
"""

from __future__ import annotations

import functools
import json
import threading
import time

from workloads import QUENCHED, replica_generations

NAME, OP, START, END, PARENT, THREAD, COUNT, COUNT2 = range(8)

CONDITION_CHECKERS = ("variance_series", "fractional_variance_series",
                      "psi_series", "increment_variance_series",
                      "jagers_sum", "moment_ratio_sup", "tightness_diagnostic")
MOMENT_METHODS = ("psi_moment", "delta_moment", "truncated_moment_ratio")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []  # hooks absent from this version of bpve
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` in spans called ``name``.  ``count(args, kwargs,
        result)`` returns ``(count, count2)`` recorded on the span."""
        spans, stack_of, lock = self.spans, self._stack, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            with lock:  # reserve the index so children can point here
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = [name, self.op, start, end, parent,
                              threading.get_ident(), 0, 0]
            if count is not None:
                spans[idx][COUNT:] = count(args, kwargs, result)
            return result
        return traced

    def install(self, bpve):
        """Patch every call boundary this benchmark measures.  A boundary
        that a refactor of bpve removed is listed in ``missing`` instead."""
        cli, conditions, distributions, environment, estimators = (
            bpve.cli, bpve.conditions, bpve.distributions, bpve.environment,
            bpve.estimators)

        def patch(owner, attr, name, count=None):
            if hasattr(owner, attr):
                setattr(owner, attr,
                        self.wrap(getattr(owner, attr), name, count))
            else:
                self.missing.append(f"{owner.__name__}.{attr}")

        law = distributions.OffspringDistribution
        patch(law, "sample_generation_totals", "distributions.totals",
              _count_totals)
        for method in MOMENT_METHODS:
            patch(law, method, f"distributions.{method}")
        patch(environment.EnvironmentSpec, "dist_at", "environment.dist_at")
        patch(environment.Mixer, "draw", "environment.mixer_draw")
        # quench and substream are imported by name, so every binding is
        # patched; estimators imports increment_variance_series by name too
        for mod in (environment, conditions, cli):
            patch(mod, "quench", "environment.quench", _count_quench)
        for mod in (environment, conditions, estimators):
            patch(mod, "substream", "streams.substream")
        for fn in CONDITION_CHECKERS:
            patch(conditions, fn, f"conditions.{fn}", _count_terms)
        patch(estimators, "increment_variance_series",
              "conditions.increment_variance_series", _count_terms)
        for fn in [a for a in dir(estimators) if a.startswith("mc_")]:
            patch(estimators, fn, f"estimators.{fn}")
        self._patch_block_pool(estimators)
        patch(cli, "cmd_run", "cli.cmd_run")
        patch(cli, "resolve_config", "cli.resolve_config")
        patch(cli, "run_experiment", "cli.run_experiment")

    def _patch_block_pool(self, estimators):
        """Give every replica block its own span on the thread running it,
        parented to the estimator call that submitted it."""
        if not hasattr(estimators, "_map_blocks"):
            self.missing.append("bpve.estimators._map_blocks")
            return
        run_blocks = estimators._map_blocks

        def map_blocks(replicas, block, fn, threads):
            parent = self.current()
            traced = self.wrap(fn, "estimators.block")

            def traced_block(b, size):
                stack = self._stack()
                stack.append(parent)  # the block span's parent
                try:
                    return traced(b, size)
                finally:
                    stack.pop()
            return run_blocks(replicas, block, traced_block, threads)
        estimators._map_blocks = map_blocks

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _count_totals(args, kwargs, result):
    parents = args[1]
    return len(parents), int(parents.sum())


def _count_quench(args, kwargs, result):
    return result.horizon, 0


def _count_terms(args, kwargs, result):
    """Series terms evaluated: the report's horizon, or environments times
    truncation length for the tightness table."""
    if hasattr(result, "env_replicas"):
        return result.env_replicas * max(result.truncations), 0
    return result.horizon, 0


# -- aggregation -------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span in ns: duration minus the union of its
    children's intervals."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [s[END] - s[START]
            - _union_length(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


def layer_metrics(spans, ops):
    """Per-layer metrics of one pass.  ``ops[i]`` is the config of op ``i``;
    replica-generations come from op inputs, not from the trace."""
    selfs = self_times(spans)
    layer = [s[NAME].split(".", 1)[0] for s in spans]

    def outer(i):
        """True when no ancestor of span ``i`` is in the same layer."""
        p = spans[i][PARENT]
        while p is not None:
            if layer[p] == layer[i]:
                return False
            p = spans[p][PARENT]
        return True

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s[NAME])]

    def secs(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx) / 1e9

    def total(idx, field=COUNT):
        return sum(spans[i][field] for i in idx)

    totals = pick(lambda n: n == "distributions.totals")
    moments = pick(lambda n: n.split(".")[-1] in MOMENT_METHODS)
    mc = pick(lambda n: n.startswith("estimators.mc_"))
    est = pick(lambda n: n.startswith("estimators."))
    conds = pick(lambda n: n.startswith("conditions."))
    env = pick(lambda n: n.startswith("environment."))
    quench = pick(lambda n: n == "environment.quench")
    subs = pick(lambda n: n == "streams.substream")

    gens = [replica_generations(cfg) for cfg in ops]
    quenched = {i for i, cfg in enumerate(ops)
                if cfg["experiment"] in QUENCHED}
    replica_gens = sum(gens)
    rows = total(totals)
    quenched_rows = total([i for i in totals if spans[i][OP] in quenched])
    quenched_gens = sum(gens[i] for i in quenched)
    est_s = secs([i for i in mc if outer(i)])

    cmd = pick(lambda n: n == "cli.cmd_run")
    runs = pick(lambda n: n == "cli.run_experiment")
    run_end = {spans[r][PARENT]: spans[r][END] for r in runs}
    write_s = sum(spans[c][END] - run_end[c] for c in cmd
                  if c in run_end) / 1e9

    return {
        "distributions.totals_calls": (len(totals), "count"),
        "distributions.totals_rows": (rows, "count"),
        "distributions.totals_s": (secs(totals), "s"),
        "distributions.ns_per_row": (secs(totals) * 1e9 / max(rows, 1),
                                     "ns"),
        "distributions.moment_calls": (len(moments), "count"),
        "distributions.moment_s": (secs([i for i in moments if outer(i)]),
                                   "s"),
        "estimators.calls": (len(mc), "count"),
        "estimators.s": (est_s, "s"),
        "estimators.self_s": (sum(selfs[i] for i in est) / 1e9, "s"),
        "estimators.replica_gens": (replica_gens, "count"),
        "estimators.ns_per_replica_gen":
            (est_s * 1e9 / max(replica_gens, 1), "ns"),
        "estimators.live_ratio":
            (quenched_rows / max(quenched_gens, 1), "ratio"),
        "environment.s": (secs([i for i in env if outer(i)]), "s"),
        "environment.quench_calls": (len(quench), "count"),
        "environment.quench_s": (secs([i for i in quench if outer(i)]), "s"),
        "environment.generations": (total(quench), "count"),
        "streams.substream_calls": (len(subs), "count"),
        "streams.substream_s": (secs(subs), "s"),
        "conditions.calls": (len(conds), "count"),
        "conditions.s": (secs([i for i in conds if outer(i)]), "s"),
        "conditions.self_s": (sum(selfs[i] for i in conds) / 1e9, "s"),
        "conditions.terms": (total(conds), "count"),
        "cli.resolve_s": (secs(pick(lambda n: n == "cli.resolve_config")),
                          "s"),
        "cli.run_s": (secs(runs), "s"),
        "cli.write_s": (write_s, "s"),
    }


# Exact counts of one op, which must repeat between runs and across thread
# counts.  The parents sum is checked but not reported: frozen halving and
# supercritical survival replicas carry 1e12 parents a row and more, so the
# sum passes 2**53 and would not survive a round trip through a float.
EXACT_COUNTS = ("distributions.totals_calls", "distributions.totals_rows",
                "distributions.totals_parents", "environment.generations",
                "streams.substream_calls")


def op_counts(spans, n_ops):
    """Per-op :data:`EXACT_COUNTS`."""
    out = [[0] * 5 for _ in range(n_ops)]
    for s in spans:
        if not 0 <= s[OP] < n_ops:
            continue
        row = out[s[OP]]
        if s[NAME] == "distributions.totals":
            row[0] += 1
            row[1] += s[COUNT]
            row[2] += s[COUNT2]
        elif s[NAME] == "environment.quench":
            row[3] += s[COUNT]
        elif s[NAME] == "streams.substream":
            row[4] += 1
    return out
