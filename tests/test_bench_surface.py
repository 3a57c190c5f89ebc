"""The library surface the benchmark calls, exercised on a small pool.

perfbench/ imports its sibling modules by name, so they are loaded here
from their files; a refactor that breaks what they call fails in this
suite instead of as failed operations in a benchmark run.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from oce_rcps import harness
from oce_rcps.datagen import GeneratorParams, SplitSpec, generate_dataset, split_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPLIT = SplitSpec(50, 150, 100)


def _load(name, mp):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        checks = _load("checks", mp)
        _load("clock", mp)  # workloads imports these two by name as well
        _load("spans", mp)
        yield checks, _load("workloads", mp)


@pytest.fixture(scope="module")
def pool():
    return generate_dataset(GeneratorParams(), 300, seed=20240501)


def _configs(workloads):
    for grid, pairs in workloads.MC.values():
        for method, risk in pairs:
            cfg = workloads._trial_config(method, risk, grid)
            yield dataclasses.replace(cfg, split=SPLIT)


def test_pool_arrays_match_dataset(bench, pool):
    checks, _ = bench
    scores, truth = checks.pool_arrays(pool.examples, pool.m)
    assert np.array_equal(scores, pool.scores)
    assert np.array_equal(truth, pool.truth)


def test_calibrate_once_matches_harness_select(bench, pool):
    _, workloads = bench
    for seed, cfg in enumerate(_configs(workloads)):
        opt, cal, _ = split_dataset(pool, cfg.split, seed)
        want = harness.select(cal, opt, cfg).lambda_hat
        assert workloads._calibrate_once(pool, cfg, seed) == want, cfg.method


def test_trial_matches_bench_reference(bench, pool):
    checks, workloads = bench
    scores, truth = checks.pool_arrays(pool.examples, pool.m)
    ledger = checks.Ledger()
    split = (SPLIT.opt_size, SPLIT.cal_size, SPLIT.test_size)
    for i, cfg in enumerate(_configs(workloads)):
        rec = harness.run_trial(pool, cfg, i, 7)
        ledger.record(rec, 7, cfg.grid.resolution)
        ledger.reference(rec, split, scores, truth, cfg.cost.spelled(), cfg.alpha)
    assert ledger.attempted > 0 and ledger.failures == []
