import concurrent.futures
import functools
import io
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oce_rcps import datagen, harness
from oce_rcps.calibrate import LambdaGrid
from oce_rcps.datagen import GeneratorParams, SplitSpec, generate_dataset
from oce_rcps.harness import (
    TrialConfig,
    TrialRecord,
    kde_density,
    parse_t_mode,
    records_to_csv,
    run_trial,
    run_trials,
    summarize,
)
from oce_rcps.risk import LossKind, OceCost

FNR = LossKind("fnr")


@pytest.fixture(scope="module")
def pool():
    return generate_dataset(GeneratorParams(m=40), 300, seed=2024)


def config(method="oce-rcps", cost=OceCost.cvar(0.8), delta=0.2, **kw):
    defaults = dict(
        method=method, cost=cost, loss=FNR, alpha=0.4, delta=delta,
        grid=LambdaGrid(40), split=SplitSpec(40, 150, 110),
    )
    defaults.update(kw)
    return TrialConfig(**defaults)


def test_run_trial_deterministic(pool):
    a = run_trial(pool, config(), 3, master_seed=7)
    b = run_trial(pool, config(), 3, master_seed=7)
    assert a == b
    assert a.satisfied == (a.test_oce_risk <= 0.4)


def test_crc_delta_invariant_streams(pool):
    recs1 = [run_trial(pool, config("oce-crc", delta=0.1), i, 7) for i in range(5)]
    recs2 = [run_trial(pool, config("oce-crc", delta=0.4), i, 7) for i in range(5)]
    assert [r.lambda_hat for r in recs1] == [r.lambda_hat for r in recs2]


def test_oce_rcps_average_matches_rcps_streams(pool):
    recs1 = [
        run_trial(pool, config("oce-rcps", cost=OceCost.average(), fixed_t=0.0), i, 7)
        for i in range(5)
    ]
    recs2 = [run_trial(pool, config("rcps", cost=OceCost.average()), i, 7) for i in range(5)]
    assert [r.lambda_hat for r in recs1] == [r.lambda_hat for r in recs2]
    assert [r.test_oce_risk for r in recs1] == [r.test_oce_risk for r in recs2]


def test_run_trials_single_trial_summary(pool):
    records, summary = run_trials(pool, config(), 1, master_seed=11)
    r = records[0]
    assert summary.trials == 1
    assert summary.satisfaction_rate == float(r.satisfied)
    assert summary.median_test_oce_risk == r.test_oce_risk
    assert summary.median_rel_size == r.median_rel_size


def test_run_trials_parallel_matches_sequential(pool):
    seq, _ = run_trials(pool, config(), 8, master_seed=13, jobs=1)
    par, _ = run_trials(pool, config(), 8, master_seed=13, jobs=2)
    assert seq == par


def test_run_trials_in_spawned_workers_matches_sequential(pool, monkeypatch):
    # a spawned worker unpickles the pool with its kept loss and member
    # counts; a forked one, the default on Linux, inherits them instead
    seq, _ = run_trials(pool, config(), 8, master_seed=13, jobs=1)  # keeps member counts
    spawned = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", spawned)
    par, _ = run_trials(pool, config(), 8, master_seed=13, jobs=2)
    assert seq == par


def test_run_trial_reads_no_part_scores_or_truth(pool, monkeypatch):
    # every part reads its counts and |truth| from the pool, and the test
    # part its member counts, so no part gathers scores or truth
    for method in harness.METHODS:
        run_trial(pool, config(method), 0, master_seed=7)  # its scan counts the pool first
    read = []
    for name in ("scores", "truth"):
        get = getattr(datagen.Dataset, name).fget
        monkeypatch.setattr(datagen.Dataset, name, property(
            lambda self, name=name, get=get: read.append((name, len(self))) or get(self)))
    for method in harness.METHODS:
        run_trial(pool, config(method), 1, master_seed=7)
    assert read == []


def record_walks(monkeypatch):
    """The size of each dataset walked from here on."""
    seen, walk = [], datagen._walk_counts
    monkeypatch.setattr(datagen, "_walk_counts", lambda data, lams: seen.append(len(data)) or walk(data, lams))
    return seen


def map_in_process(monkeypatch, seen, cpus=8):
    """Replace the worker pool by one that appends its max_workers to `seen`
    and maps in-process: a real pool starts all its processes at the first
    submit. The machine reports `cpus` CPUs."""

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_WORKER", {})
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)


def test_trials_walk_the_pool_once_per_grid(monkeypatch):
    pool = generate_dataset(GeneratorParams(m=40), 300, seed=2024)  # never counted
    seen = record_walks(monkeypatch)
    for i in range(3):
        run_trial(pool, config(), i, master_seed=5)
    for method in ("oce-rcps", "oce-crc", "rcps"):
        run_trials(pool, config(method), 4, master_seed=5, jobs=1)
    assert seen == [len(pool)]  # no split is walked
    run_trials(pool, config(grid=LambdaGrid(20)), 2, master_seed=5, jobs=1)
    assert seen == [len(pool)] * 2


def test_run_trials_counts_the_pool_before_workers_start(monkeypatch):
    pool = generate_dataset(GeneratorParams(m=40), 300, seed=2024)
    seen = record_walks(monkeypatch)
    map_in_process(monkeypatch, seen)
    run_trials(pool, config(), 2, master_seed=13, jobs=2)
    assert seen == [len(pool), 2]


def test_run_trials_caps_workers_at_trial_count(pool, monkeypatch):
    seen = []
    map_in_process(monkeypatch, seen)
    capped, _ = run_trials(pool, config(), 2, master_seed=13, jobs=5000)
    assert len(seen) == 1 and 1 <= seen[0] <= 2
    assert capped == run_trials(pool, config(), 2, master_seed=13, jobs=1)[0]


def test_run_trials_caps_workers_at_cpu_count(pool, monkeypatch):
    seen = []
    map_in_process(monkeypatch, seen, cpus=3)
    capped, _ = run_trials(pool, config(), 8, master_seed=13, jobs=5000)
    assert seen == [3]
    assert capped == run_trials(pool, config(), 8, master_seed=13, jobs=1)[0]


def test_summarize_rates():
    def rec(i, risk):
        return TrialRecord(i, i, "rcps", 0.5, True, risk, risk <= 0.2, 1.0, 1.0)

    records = [rec(0, 0.1), rec(1, 0.3)]
    assert summarize(records, 0.2).satisfaction_rate == 0.5
    assert summarize(records, 1.0).satisfaction_rate == 1.0
    four = [rec(i, r) for i, r in enumerate((0.1, 0.15, 0.3, 0.4))]
    assert summarize(four, 0.2).satisfaction_rate == 0.5


def test_summarize_rejects_mixed_methods():
    a = TrialRecord(0, 0, "rcps", 0.5, True, 0.1, True, 1.0, 1.0)
    b = TrialRecord(1, 1, "oce-crc", 0.5, True, 0.1, True, 1.0, 1.0)
    with pytest.raises(ValueError):
        summarize([a, b], 0.2)
    with pytest.raises(ValueError):
        summarize([], 0.2)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method: 'bogus'"):
        config(method="bogus")


@pytest.mark.parametrize("method", harness.METHODS)
def test_unknown_bound_method_rejected(method):
    # oce-crc bounds nothing, so it would run and echo the name
    with pytest.raises(ValueError, match="unknown bound method: 'bogus'"):
        config(method, bound_method="bogus")


@pytest.mark.parametrize("method", harness.METHODS)
@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan, math.inf])
def test_fixed_t_outside_the_loss_range_rejected(method, t):
    # the bounds map t + phi(loss - t) onto [0, 1] through a range that
    # needs t in [0, 1]; rcps ignores t but is held to the same rule
    with pytest.raises(ValueError, match=r"fixed t must lie in \[0, 1\]"):
        config(method, fixed_t=t)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_rcps_takes_no_fixed_t(t):
    # select_rcps runs at t = 0, so a fixed t would only be echoed
    with pytest.raises(ValueError, match="method rcps takes no fixed t"):
        config("rcps", fixed_t=t)
    assert config("rcps").echo()["t_mode"] == "per-lambda"


@given(
    cost=st.builds(OceCost.cvar, st.floats(0.0, 1.0, exclude_max=True))
    | st.builds(OceCost.entropic, st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)),
    t=st.floats(0.0, 1.0),
)
def test_echo_reads_back_as_the_config(cost, t):
    # a six-digit spelling would write cvar:0.9999999 as cvar:1, which no cvar accepts
    echo = config(cost=cost, fixed_t=t).echo()
    assert OceCost.parse(echo["risk"]) == cost
    assert parse_t_mode(echo["t_mode"]) == t


def test_oce_crc_takes_no_bound_method():
    # oce-crc bounds nothing, so any bound method but the default would only be echoed
    with pytest.raises(ValueError, match="method oce-crc takes no bound method 'hoeffding'"):
        config("oce-crc", bound_method="hoeffding")
    assert config("oce-crc").echo()["bound"] == "wsr"
    for method in ("rcps", "oce-rcps"):
        assert config(method, bound_method="hoeffding").echo()["bound"] == "hoeffding"


def test_bad_config_never_walks_the_pool(monkeypatch):
    pool = generate_dataset(GeneratorParams(m=40), 300, seed=2024)  # never counted
    seen = record_walks(monkeypatch)
    bad_alphas = [{"alpha": a} for a in (math.nan, math.inf, -0.1)]
    bad_deltas = [{"delta": d} for d in (0.0, 1.0, 1.5, math.nan)]
    for bad in ({"fixed_t": 1.5}, {"fixed_t": math.nan}, {"bound_method": "bogus"},
                *bad_alphas, *bad_deltas):
        for method in harness.METHODS:
            with pytest.raises(ValueError):
                run_trials(pool, config(method, **bad), 3, master_seed=7)
    assert seen == []


def test_run_trials_needs_a_trial(pool):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(pool, config(), 0, 1)


def test_summarize_consistency_with_records(pool):
    records, summary = run_trials(pool, config(), 12, master_seed=17)
    rate = np.mean([r.test_oce_risk <= 0.4 for r in records])
    assert summary.satisfaction_rate == rate


# ---------------------------------------------------------------- kde

def test_kde_symmetric_peak():
    rng = np.random.default_rng(0)
    values = np.concatenate([3.0 + rng.normal(size=500), 3.0 - rng.normal(size=500)])
    series = kde_density(values)
    peak_x = series[np.argmax(series[:, 1]), 0]
    step = series[1, 0] - series[0, 0]
    assert abs(peak_x - 3.0) <= 2 * step + 0.1


def test_kde_matches_normal_density():
    values = np.random.default_rng(1).normal(size=10_000)
    series = kde_density(values)
    at_zero = np.interp(0.0, series[:, 0], series[:, 1])
    assert abs(at_zero - 1 / math.sqrt(2 * math.pi)) < 0.05


def test_kde_integrates_to_one():
    rng = np.random.default_rng(2)
    for values in (rng.uniform(size=100), rng.exponential(size=500), [0.0, 1.0, 2.0]):
        series = kde_density(values)
        integral = np.trapezoid(series[:, 1], series[:, 0])
        assert 0.99 <= integral <= 1.01


def test_kde_of_mostly_tied_values_integrates_to_one():
    # more than half the values tie, so the IQR is 0 and std sets the bandwidth
    series = kde_density([0.0] * 19 + [0.4])
    assert 0.99 <= np.trapezoid(series[:, 1], series[:, 0]) <= 1.01


def test_kde_rejects_degenerate_input():
    with pytest.raises(ValueError):
        kde_density([1.0])
    with pytest.raises(ValueError):
        kde_density([2.0, 2.0, 2.0])


# ---------------------------------------------------------------- csv

def test_records_csv_layout(pool):
    records, _ = run_trials(pool, config(), 2, master_seed=19)
    buf = io.StringIO()
    records_to_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("trial_index,seed,method,lambda_hat,feasible")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "oce-rcps"
