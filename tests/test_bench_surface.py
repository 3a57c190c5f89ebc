"""The library surface the benchmark calls, exercised on a small pool.

perfbench/ imports its sibling modules by name, so they are loaded here
from their files; a refactor that breaks what they call fails in this
suite instead of as failed operations in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from oce_rcps import calibrate, harness, rng
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
        _load("clock", mp)  # workloads imports clock and spans by name as well
        spans = _load("spans", mp)
        yield checks, _load("workloads", mp), spans


@pytest.fixture(scope="module")
def pool():
    return generate_dataset(GeneratorParams(), 300, seed=20240501)


def _configs(workloads):
    for grid, pairs in workloads.MC.values():
        for method, risk in pairs:
            cfg = workloads._trial_config(method, risk, grid)
            yield dataclasses.replace(cfg, split=SPLIT)


def test_pool_arrays_match_dataset(bench, pool):
    checks, _, _ = bench
    scores, truth = checks.pool_arrays(pool.examples, pool.m)
    assert np.array_equal(scores, pool.scores)
    assert np.array_equal(truth, pool.truth)


@pytest.mark.parametrize("n, seed", [(0, 1), (1, 2), (2, 3), (60, 2**64 - 1), (300, 7), (1781, 20240501)])
def test_bench_shuffle_matches_permutation(bench, n, seed):
    # the reference redoes each trial's split with its own Fisher-Yates loop
    checks, _, _ = bench
    assert checks.permutation(n, seed) == rng.permutation(n, seed).tolist()


def test_calibrate_once_matches_harness_select(bench, pool):
    _, workloads, _ = bench
    for seed, cfg in enumerate(_configs(workloads)):
        opt, cal, _ = split_dataset(pool, cfg.split, seed)
        want = harness.select(cal, opt, cfg).lambda_hat
        assert workloads._calibrate_once(pool, cfg, seed) == want, cfg.method


def test_trial_matches_bench_reference(bench, pool):
    checks, workloads, _ = bench
    scores, truth = checks.pool_arrays(pool.examples, pool.m)
    ledger = checks.Ledger()
    split = (SPLIT.opt_size, SPLIT.cal_size, SPLIT.test_size)
    for i, cfg in enumerate(_configs(workloads)):
        rec = harness.run_trial(pool, cfg, i, 7)
        ledger.record(rec, 7, cfg.grid.resolution)
        ledger.reference(rec, split, scores, truth, cfg.cost.spelled(), cfg.alpha)
    assert ledger.attempted > 0 and ledger.failures == []


def test_select_counter_counts_tested_lambdas(bench, pool):
    # calibrate.lambda_tested reads the selectors' trace; a counter that
    # raises only blanks the metric in a benchmark run
    _, workloads, spans = bench
    for seed, cfg in enumerate(_configs(workloads)):
        opt, cal, _ = split_dataset(pool, cfg.split, seed)
        G, spec = cfg.grid.resolution, cfg.spec()
        calls = {
            "select_oce_crc": (cal, opt, spec, cfg.grid, cfg.cost, cfg.loss),
            "select_oce_rcps": (cal, opt, spec, cfg.grid, cfg.cost, cfg.loss),
            "select_rcps": (cal, spec, cfg.grid, cfg.loss),
        }
        for name, args in calls.items():
            out = getattr(calibrate, name)(*args)
            k = round(out.lambda_hat * G)
            if name == "select_oce_crc":  # upward to the first pass
                tested = k + 1 if out.feasible else G + 1
            else:  # downward through the passes, then the first failure
                tested = G - k + 1 + (k > 0) if out.feasible else 1
            counts = spans._select_counts(args, {}, out)
            assert counts == {"calibrate.lambda_tested": tested, "calibrate.grid_cols": G + 1}, name


def test_every_hooked_name_resolves(bench):
    # a span none of whose hooks resolves reads null in a bench run. The cli
    # rows for the selectors predate harness.select, through which the cli
    # now selects, so the harness rows time those calls.
    _, _, spans = bench
    stale = {("oce_rcps.cli", name) for name in spans._SELECT}
    resolved = set()
    for span, module, attr, _ in spans.HOOKS:
        if callable(getattr(importlib.import_module(module), attr, None)):
            resolved.add(span)
        else:
            assert (module, attr) in stale, (span, module, attr)
    assert resolved == {row[0] for row in spans.HOOKS}
