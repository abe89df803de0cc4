"""Spans around the calls into each ksvfair layer, recorded from outside the package.

``install`` replaces the module attributes and oracle methods that callers
look up at call time with wrappers that record one span per call: name,
start, end, the index of the enclosing span and the run id.  Spans stay in memory and
are dumped when the run ends.  ``RestrictedGame.value`` runs millions of
times per fair target, so it only gets a call counter.  ``Summary`` and
``PER_LAYER`` turn a dump into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, count=None):
        spans, stack, counts, run_id = self.spans, self.stack, self.counts, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _count_rows(counts, args, kwargs, result):
    # the estimators call pull_mean_many(sets, L, rng) positionally
    counts["envs.pull_mean_many.rows"] += len(result)
    counts["envs.pull_mean_many.draws"] += len(result) * int(args[2])


def _count_pulls(counts, args, kwargs, result):
    counts["estimation.pulls_consumed"] += int(result.pulls_consumed)


def _count_rounds(counts, args, kwargs, result):
    counts["policies.rounds"] += int(result.n_rounds)


def install(run_id: str) -> Tracer:
    """Wrap every layer boundary the CLI path crosses; returns the recorder."""
    from ksvfair import cli, envs, games, metrics, policies

    tr = Tracer(run_id)

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tr.span(name, getattr(owner, attr), count))

    for attr in (
        "run_experiment",
        "compare_runs",
        "load_config",
        "build_env",
        "true_shapley",
        "write_round_csv",
        "write_arms_csv",
        "write_aggregate_csv",
    ):
        patch(cli, attr, f"cli.{attr}")
    patch(cli, "exact_k_shapley", "games.exact_k_shapley")
    patch(cli, "sampled_k_shapley", "games.sampled_k_shapley")
    patch(cli, "load_edge_list", "envs.load_edge_list")
    patch(cli, "fair_policy", "metrics.fair_policy")
    for algo, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[algo] = tr.span(f"policies.{fn.__name__}", fn, _count_rounds)
    patch(policies, "ksvfair_round", "policies.round")
    patch(policies, "shapley_estimation", "estimation.shapley_estimation", _count_pulls)
    patch(policies, "muras_round", "estimation.muras_round", _count_pulls)
    patch(policies, "normalize_to_marginals", "rounding.normalize_to_marginals")
    patch(policies, "rrs_sample", "rounding.rrs_sample")
    for cls in (envs.SyntheticEnv, envs.CascadeEnv):
        patch(cls, "exact", "envs.exact")
        patch(cls, "pull", "envs.pull")
        patch(cls, "pull_mean", "envs.pull_mean")
        patch(cls, "pull_mean_many", "envs.pull_mean_many", _count_rows)
    games.RestrictedGame.value = tr.counter("games.value", games.RestrictedGame.value)
    ledger = metrics.FairnessLedger
    ledger.from_run = classmethod(tr.span("metrics.ledger", ledger.__dict__["from_run"].__func__))
    return tr


class Summary:
    """Per-name call counts, total and self time, and durations of one dump."""

    def __init__(self, dump: dict, wall_s: float):
        spans = dump["spans"]
        self.counts = Counter(dump["counts"])
        child = np.zeros(len(spans))
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        in_target = [False] * len(spans)
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            d = end - start
            self.calls[name] += 1
            self.total[name] += d
            self.self_s[name] += d - child[i]
            self.durations.setdefault(name, []).append(d)
            in_target[i] = name == "cli.true_shapley" or (parent >= 0 and in_target[parent])
            if in_target[i] and name == "envs.exact":
                self.counts["envs.exact.in_target"] += 1
            if parent < 0:
                top += d
        self.top_level_coverage = top / wall_s if wall_s > 0 else 0.0

    def n_calls(self, name: str) -> int:
        return self.calls[name] or self.counts[name]

    def pct(self, name: str, q: float, scale: float) -> float:
        d = self.durations.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0


def _memo_hit_ratio(s: Summary) -> float:
    calls = s.counts["games.value"]
    return 1.0 - s.counts["envs.exact.in_target"] / calls if calls else 0.0


def _total(name):
    return lambda s: s.total[name]


def _self(name):
    return lambda s: s.self_s[name]


def _calls(name):
    return lambda s: s.n_calls(name)


def _count(key):
    return lambda s: s.counts[key]


def _pct(name, q, scale):
    return lambda s: s.pct(name, q, scale)


_WRITES = ("cli.write_round_csv", "cli.write_arms_csv", "cli.write_aggregate_csv")

# (metric, unit, better, extractor); cli.output_bytes and trace.* come from the runner.
PER_LAYER = [
    ("games.exact_k_shapley.s", "s", "lower", _total("games.exact_k_shapley")),
    ("games.exact_k_shapley.self_s", "s", "lower", _self("games.exact_k_shapley")),
    ("games.value.calls", "count", "lower", _count("games.value")),
    ("games.memo_hit_ratio", "ratio", "higher", _memo_hit_ratio),
    ("games.sampled_k_shapley.s", "s", "lower", _total("games.sampled_k_shapley")),
    ("games.sampled_k_shapley.self_s", "s", "lower", _self("games.sampled_k_shapley")),
    ("envs.pull_mean_many.s", "s", "lower", _total("envs.pull_mean_many")),
    ("envs.pull_mean_many.calls", "count", "lower", _calls("envs.pull_mean_many")),
    ("envs.pull_mean_many.rows", "count", "lower", _count("envs.pull_mean_many.rows")),
    ("envs.pull_mean_many.draws", "count", "lower", _count("envs.pull_mean_many.draws")),
    ("envs.pull.calls", "count", "lower", _calls("envs.pull")),
    ("envs.pull.s", "s", "lower", _total("envs.pull")),
    ("envs.pull.us_p50", "us", "lower", _pct("envs.pull", 50, 1e6)),
    ("envs.pull.us_p99", "us", "lower", _pct("envs.pull", 99, 1e6)),
    ("envs.pull_mean.calls", "count", "lower", _calls("envs.pull_mean")),
    ("envs.pull_mean.s", "s", "lower", _total("envs.pull_mean")),
    ("envs.exact.calls", "count", "lower", _calls("envs.exact")),
    ("envs.exact.s", "s", "lower", _total("envs.exact")),
    ("envs.load_edge_list.s", "s", "lower", _total("envs.load_edge_list")),
    ("estimation.shapley_estimation.s", "s", "lower", _total("estimation.shapley_estimation")),
    ("estimation.shapley_estimation.self_s", "s", "lower", _self("estimation.shapley_estimation")),
    ("estimation.shapley_estimation.calls", "count", "lower", _calls("estimation.shapley_estimation")),
    ("estimation.muras_round.s", "s", "lower", _total("estimation.muras_round")),
    ("estimation.muras_round.calls", "count", "lower", _calls("estimation.muras_round")),
    ("estimation.pulls_consumed", "count", "lower", _count("estimation.pulls_consumed")),
    ("rounding.normalize_to_marginals.calls", "count", "lower", _calls("rounding.normalize_to_marginals")),
    ("rounding.normalize_to_marginals.us_p50", "us", "lower", _pct("rounding.normalize_to_marginals", 50, 1e6)),
    ("rounding.normalize_to_marginals.us_p99", "us", "lower", _pct("rounding.normalize_to_marginals", 99, 1e6)),
    ("rounding.rrs_sample.calls", "count", "lower", _calls("rounding.rrs_sample")),
    ("rounding.rrs_sample.us_p50", "us", "lower", _pct("rounding.rrs_sample", 50, 1e6)),
    ("rounding.rrs_sample.us_p99", "us", "lower", _pct("rounding.rrs_sample", 99, 1e6)),
    ("policies.round.ms_p50", "ms", "lower", _pct("policies.round", 50, 1e3)),
    ("policies.round.ms_p99", "ms", "lower", _pct("policies.round", 99, 1e3)),
    ("policies.run_ksvfair.self_s", "s", "lower", _self("policies.run_ksvfair")),
    ("policies.muras_run.self_s", "s", "lower", _self("policies.muras_run")),
    ("policies.uniform_baseline.self_s", "s", "lower", _self("policies.uniform_baseline")),
    ("policies.etcg_baseline.self_s", "s", "lower", _self("policies.etcg_baseline")),
    ("policies.rounds", "count", "higher", _count("policies.rounds")),
    ("metrics.fair_policy.s", "s", "lower", _total("metrics.fair_policy")),
    ("metrics.ledger.s", "s", "lower", _total("metrics.ledger")),
    ("cli.load_config.s", "s", "lower", _total("cli.load_config")),
    ("cli.build_env.s", "s", "lower", _total("cli.build_env")),
    ("cli.true_shapley.s", "s", "lower", _total("cli.true_shapley")),
    ("cli.write.s", "s", "lower", lambda s: sum(s.total[n] for n in _WRITES)),
    ("cli.compare_runs.s", "s", "lower", _total("cli.compare_runs")),
]

# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "games.value.calls",
    "envs.pull_mean_many.rows",
    "envs.pull.calls",
    "estimation.pulls_consumed",
    "policies.rounds",
    "cli.output_bytes",
)
