"""End-to-end acceptance gate.

Runs every release criterion at its stated tolerance and prints one
pass/fail line per criterion (visible under ``pytest -s``). The Monte
Carlo criteria share module-scoped experiment runs on the default
synthetic pool (1781 examples, 200/800/781 splits).
"""

import math
import time

import numpy as np
import pytest

from oce_rcps.bounds import _wsr_ucb, betting_fractions, capital_process, oce_risk_ucb
from oce_rcps.calibrate import (
    LambdaGrid,
    ReliabilitySpec,
    select_oce_rcps,
    select_rcps,
)
from oce_rcps.datagen import Dataset, GeneratorParams, SplitSpec, generate_dataset, split_dataset
from oce_rcps.harness import TrialConfig, records_to_csv, run_trials
from oce_rcps.risk import (
    LossKind,
    OceCost,
    empirical_objective,
    empirical_oce,
    losses_at,
    optimize_t,
    relative_set_sizes,
)
from oracles import golden_section_t

FNR = LossKind("fnr")
TRIALS = 500
GRID = LambdaGrid(100)
SPLIT = SplitSpec(200, 800, 781)
ALPHA = 0.4
DELTAS = (0.4, 0.3, 0.2, 0.1)
MASTER_SEED = 7
JOBS = 4
# verified feasible by the lambda endpoint check inside criterion 5
ENTROPIC_ALPHA = 0.4


def mc_threshold(delta: float, trials: int = TRIALS) -> float:
    return 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def pool():
    return generate_dataset(GeneratorParams(), 1781, seed=20240501)


def _run(pool, method, cost, delta):
    config = TrialConfig(
        method=method, cost=cost, loss=FNR, alpha=ALPHA, delta=delta,
        grid=GRID, split=SPLIT,
    )
    return run_trials(pool, config, TRIALS, MASTER_SEED, jobs=JOBS)


@pytest.fixture(scope="module")
def rcps_by_delta(pool):
    return {d: _run(pool, "oce-rcps", OceCost.cvar(0.9), d) for d in DELTAS}


@pytest.fixture(scope="module")
def crc_by_delta(pool):
    return {d: _run(pool, "oce-crc", OceCost.cvar(0.9), d) for d in DELTAS}


@pytest.fixture(scope="module")
def entropic_run(pool):
    config = TrialConfig(
        method="oce-rcps", cost=OceCost.entropic(3), loss=FNR,
        alpha=ENTROPIC_ALPHA, delta=0.2, grid=GRID, split=SPLIT,
    )
    return run_trials(pool, config, TRIALS, MASTER_SEED, jobs=JOBS)


def test_criterion_1_closed_form_oracle_equivalence():
    start = time.monotonic()
    costs = [OceCost.entropic(b) for b in (0.5, 1, 3)] + [
        OceCost.cvar(b) for b in (0.5, 0.8, 0.9)
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        losses = rng.uniform(size=50)
        for cost in costs:
            fc = empirical_objective(losses, cost, optimize_t(losses, cost))
            fg = empirical_objective(losses, cost, golden_section_t(losses, cost))
            worst = max(worst, abs(fc - fg))
    elapsed = time.monotonic() - start
    report(
        1, "closed-form oracle equivalence",
        worst < 1e-5 and elapsed < 5.0,
        f"max objective gap {worst:.2e}, {elapsed:.1f}s",
    )


def _random_fixture(rng, n, m=10):
    scores = np.empty((n, m))
    truth = np.zeros((n, m), dtype=bool)
    for i in range(n):
        scores[i] = rng.uniform(size=m)
        truth[i, rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = True
    return Dataset(scores, truth)


def test_criterion_2_identity_reduction():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    avg = OceCost.average()
    t_gap = 0.0
    for _ in range(100):
        losses = rng.uniform(size=30)
        base = empirical_objective(losses, avg, 0.0)
        for t in rng.uniform(0, 1, size=10):
            t_gap = max(t_gap, abs(empirical_objective(losses, avg, t) - base))
    identical = True
    for _ in range(20):
        cal = _random_fixture(rng, 50)
        opt = _random_fixture(rng, 20)
        spec = ReliabilitySpec(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.4))
        grid = LambdaGrid(25)
        a = select_oce_rcps(cal, opt, spec, grid, avg, FNR)
        b = select_rcps(cal, spec, grid, FNR)
        identical &= (
            a.lambda_hat == b.lambda_hat
            and a.feasible == b.feasible
            and np.array_equal(a.trace, b.trace)
            and np.array_equal(a.bounds(), b.bounds())  # the scans decide without them
        )
    elapsed = time.monotonic() - start
    report(
        2, "identity reduction",
        t_gap < 1e-12 and identical and elapsed < 10.0,
        f"t-invariance gap {t_gap:.1e}, rcps match {identical}, {elapsed:.1f}s",
    )


def test_criterion_3_wsr_coverage():
    start = time.monotonic()
    rates = {}
    for delta, threshold in ((0.2, 0.78), (0.1, 0.88)):
        rng = np.random.default_rng(1000 + int(delta * 100))
        covered = 0
        for _ in range(2000):
            z = (rng.uniform(size=800) < 0.3).astype(float)
            if _wsr_ucb(z[None], delta)[0] >= 0.3:
                covered += 1
        rates[delta] = covered / 2000
    elapsed = time.monotonic() - start
    ok = rates[0.2] >= 0.78 and rates[0.1] >= 0.88 and elapsed < 120.0
    report(
        3, "WSR coverage",
        ok,
        f"coverage delta=0.2: {rates[0.2]:.3f} (>=0.78), delta=0.1: {rates[0.1]:.3f} (>=0.88), {elapsed:.0f}s",
    )


def test_criterion_4_monotonicity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(104)

    for _ in range(100):  # nesting and loss monotonicity
        data = _random_fixture(rng, 1)
        l1, l2 = sorted(rng.uniform(size=2))
        assert not np.any((data.scores >= 1.0 - l1) & (data.scores < 1.0 - l2))
        assert relative_set_sizes(data, l1)[0] <= relative_set_sizes(data, l2)[0]
        for kind in (FNR, LossKind("miscoverage")):
            small, big = losses_at(data, kind, [l1, l2])[0]
            assert small >= big

    for _ in range(50):  # capital monotone in R
        z = rng.uniform(size=rng.integers(1, 120))
        etas = betting_fractions(z, 0.1)
        caps = [capital_process(z, r, etas) for r in np.sort(rng.uniform(size=6))]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))

    z = (rng.uniform(size=400) < 0.4).astype(float)  # UCB monotone in delta
    ucbs = [_wsr_ucb(z[None], d)[0] for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-12 for a, b in zip(ucbs, ucbs[1:]))

    costs = [OceCost.average(), OceCost.entropic(3), OceCost.cvar(0.5), OceCost.cvar(0.9)]
    for _ in range(1000):  # Lemma-style inequality chain
        losses = rng.uniform(size=rng.integers(1, 50))
        t = rng.uniform(0, 1)
        for cost in costs:
            value, _ = empirical_oce(losses, cost)
            assert value <= empirical_objective(losses, cost, t) + 1e-12

    elapsed = time.monotonic() - start
    report(4, "monotonicity suite", elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_5_theorem1_end_to_end(pool, rcps_by_delta, entropic_run):
    _, cvar_summary = rcps_by_delta[0.2]
    _, ent_summary = entropic_run

    # feasibility endpoint check for the entropic alpha: the UCB at
    # lambda=1 must pass while lambda=0 must fail on a real calibration set
    opt, cal, _ = split_dataset(pool, SPLIT, seed=99)
    cost = OceCost.entropic(3)
    ucbs = {}
    for lam in (0.0, 1.0):
        opt_losses = losses_at(opt, FNR, [lam])[:, 0]
        cal_losses = losses_at(cal, FNR, [lam])[:, 0]
        t = optimize_t(opt_losses, cost)
        ucbs[lam] = oce_risk_ucb(cal_losses, cost, t, 0.2)
    endpoints_ok = ucbs[1.0] <= ENTROPIC_ALPHA < ucbs[0.0]

    ok = (
        cvar_summary.satisfaction_rate >= 0.77
        and ent_summary.satisfaction_rate >= 0.77
        and endpoints_ok
    )
    report(
        5, "Theorem-1 end-to-end",
        ok,
        f"cvar sat {cvar_summary.satisfaction_rate:.3f} (>=0.77), "
        f"entropic sat {ent_summary.satisfaction_rate:.3f} (>=0.77), "
        f"entropic UCB(1)={ucbs[1.0]:.3f} <= {ENTROPIC_ALPHA} < UCB(0)={ucbs[0.0]:.3f}",
    )


def test_criterion_6_crc_average_guarantee(crc_by_delta):
    _, summary = crc_by_delta[0.2]
    ok = summary.mean_test_oce_risk <= ALPHA + 0.02
    report(
        6, "OCE-CRC average guarantee",
        ok,
        f"mean test risk {summary.mean_test_oce_risk:.4f} <= {ALPHA + 0.02}",
    )


def test_criterion_7_qualitative_ordering(rcps_by_delta, crc_by_delta):
    _, rcps = rcps_by_delta[0.2]
    _, crc = crc_by_delta[0.2]
    ok = (
        rcps.satisfaction_rate > crc.satisfaction_rate
        and rcps.median_rel_size >= crc.median_rel_size
    )
    report(
        7, "qualitative ordering",
        ok,
        f"satisfaction {rcps.satisfaction_rate:.3f} > {crc.satisfaction_rate:.3f}; "
        f"median rel size {rcps.median_rel_size:.3f} >= {crc.median_rel_size:.3f}",
    )


def _csv_bytes(records):
    import io

    buf = io.StringIO()
    records_to_csv(records, buf)
    return buf.getvalue().encode()


def test_criterion_8_reliability_sweep(rcps_by_delta, crc_by_delta):
    details = []
    ok = True
    for delta in DELTAS:
        _, summary = rcps_by_delta[delta]
        threshold = mc_threshold(delta)
        ok &= summary.satisfaction_rate >= threshold
        details.append(f"delta={delta}: {summary.satisfaction_rate:.3f}>= {threshold:.3f}")
    crc_csvs = {delta: _csv_bytes(crc_by_delta[delta][0]) for delta in DELTAS}
    invariant = len(set(crc_csvs.values())) == 1
    ok &= invariant
    report(
        8, "reliability sweep",
        ok,
        "; ".join(details) + f"; CRC delta-invariant bytes: {invariant}",
    )


def test_criterion_9_parallel_determinism(pool):
    start = time.monotonic()
    config = TrialConfig(
        method="oce-rcps", cost=OceCost.cvar(0.9), loss=FNR, alpha=ALPHA,
        delta=0.2, grid=GRID, split=SPLIT,
    )
    csvs = []
    for jobs in (1, 4, 8):
        records, _ = run_trials(pool, config, 60, MASTER_SEED, jobs=jobs)
        csvs.append(_csv_bytes(records))
    elapsed = time.monotonic() - start
    ok = len(set(csvs)) == 1 and elapsed < 300.0
    report(9, "parallel determinism", ok, f"jobs 1/4/8 identical, {elapsed:.0f}s")
