"""The OCE-CRC certificate: the lower bound by which a scan fails a column
without its objective, the t-free bound by which it skips the columns below
its start, and the decisions both leave equal to the test's."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oce_rcps import calibrate
from oce_rcps.calibrate import (
    LambdaGrid, ReliabilitySpec, _certificate, _margin, _t_free_margin, select_oce_crc,
)
from oce_rcps.datagen import (
    Dataset,
    GeneratorParams,
    SplitSpec,
    count_pool,
    generate_dataset,
    loss_reader,
    split_dataset,
)
from oce_rcps.harness import TrialConfig, run_trial, select
from oce_rcps.risk import LossKind, OceCost, bound_B, losses_at
from oce_rcps.rng import mix64
from oracles import column_objective, oce_crc_scan

FNR = LossKind("fnr")
MISS = LossKind("miscoverage")

# one cost of each kind and regime: entropic below the log1p branch's beta,
# CVaR at a beta whose slope 1/(1 - beta) is 1e7, and an entropic beta large
# enough that exp(beta (1 - t)) is about beta B at a t near 1
COSTS = [
    OceCost.average(),
    OceCost.cvar(0.0), OceCost.cvar(0.9), OceCost.cvar(0.9999999),
    OceCost.entropic(1e-6), OceCost.entropic(3), OceCost.entropic(1e5),
]

# the first block edges of the scan, in grid columns from its start
EDGES = [hi for _, hi in calibrate._blocks(10_000, True)][:3]


def random_pool(rng, n, m, G, kind, identical=False):
    """A pool of n rows of m elements whose scores tie with the grid's
    thresholds; with `identical`, every row is the first one, so each loss
    column is constant."""
    scores = rng.integers(0, 2 * G + 1, size=(n, m)) / (2 * G)
    truth = rng.uniform(size=(n, m)) < rng.uniform(0.1, 0.9)
    if kind is FNR:
        truth[np.arange(n), rng.integers(0, m, size=n)] = True
    if identical:
        scores, truth = np.repeat(scores[:1], n, axis=0), np.repeat(truth[:1], n, axis=0)
    return Dataset(scores, truth)


def traced(out):
    """The outcome's trace as (lam, bound, passed, t) rows in scan order,
    each bound from `bounds()`, as the column oracle lists them."""
    trace = out.trace
    return list(zip(
        trace["lam"].tolist(), out.bounds().tolist(), trace["passed"].tolist(), trace["t"].tolist()
    ))


def oracle_value(losses, cost, t):
    """The oracle's test value (n/(n+1)) objective + B/(n+1) of one loss column."""
    n = losses.size
    return (n / (n + 1.0)) * column_objective(losses, cost, t) + float(bound_B(cost, t)) / (n + 1.0)


def slope(cost, t):
    """phi'(1 - t), the largest slope of phi on the losses' range at t."""
    if cost.variant == "entropic":
        return math.exp(cost.beta * (1.0 - t))
    return 1.0 / (1.0 - cost.beta) if cost.variant == "cvar" else 1.0


def in_exp_range(cost):
    """Whether B(0) = phi(1) is in exp range, the condition of the skip."""
    return cost.variant != "entropic" or cost.beta <= 709.0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.sampled_from([1, 4, 12]),
    G=st.one_of(st.integers(1, 40), st.sampled_from([e + d - 1 for e in EDGES for d in (-1, 0, 1)])),
    kind=st.sampled_from([FNR, MISS]),
    cost=st.sampled_from(COSTS),
    t_mode=st.sampled_from(["per-lambda", "zero", "one", "uniform", "near-one"]),
    part=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_crc_matches_the_column_oracle(n, m, G, kind, cost, t_mode, part, seed):
    # alpha at a column's exact test value and one ulp on each side of it:
    # the certified scan decides every column as the uncertified oracle does
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, 2 * n if part else n, m, G, kind)
    grid = LambdaGrid(G)
    count_pool(pool, grid.values)
    opt, cal = split_dataset(pool, SplitSpec(n, n, 0), seed)[:2] if part else (pool, pool)
    fixed_t = {
        "per-lambda": None, "zero": 0.0, "one": 1.0, "uniform": float(rng.uniform()),
        # beta (1 - t) = 700 at the largest beta, in exp range for every beta
        "near-one": 1.0 - 700.0 / 1e5,
    }[t_mode]
    lams = grid.values
    cal_losses, opt_losses = losses_at(cal, kind, lams), losses_at(opt, kind, lams)
    values = []  # each column's test value, up to the first that overflows
    for j in range(lams.size):
        try:
            one = oce_crc_scan(cal_losses[:, [j]], opt_losses[:, [j]], -math.inf, lams[j:j + 1], cost, fixed_t)
        except OverflowError:
            break
        values.append(one[2][0].bound)
    assume(values)
    picks = {int(rng.integers(len(values)))} | {e - 1 for e in EDGES if e <= len(values)}
    for j in picks:
        for alpha in (np.nextafter(values[j], 0.0), values[j], np.nextafter(values[j], math.inf)):
            spec = ReliabilitySpec(float(alpha), 0.2)
            try:
                want = oce_crc_scan(cal_losses, opt_losses, alpha, lams, cost, fixed_t)
            except OverflowError:
                with pytest.raises(OverflowError):
                    select_oce_crc(cal, opt, spec, grid, cost, kind, fixed_t=fixed_t)
                continue
            out = select_oce_crc(cal, opt, spec, grid, cost, kind, fixed_t=fixed_t)
            assert (out.lambda_hat, out.feasible) == want[:2]
            assert traced(out) == want[2]  # lam, bound, passed and t, in scan order


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 200),
    m=st.sampled_from([1, 5, 300]),  # 300 elements: uint16 counts
    G=st.integers(1, 30),
    kind=st.sampled_from([FNR, MISS]),
    cost=st.sampled_from(COSTS),
    identical=st.booleans(),
    counted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_is_at_most_the_test_value_plus_the_margin(n, m, G, kind, cost, identical, counted, seed):
    # on constant columns the Jensen gap is zero, so only rounding keeps the
    # certificate below the test value, and the margin must cover it
    rng = np.random.default_rng(seed)
    data = random_pool(rng, n, m, G, kind, identical)
    lams = LambdaGrid(G).values
    if counted:
        count_pool(data, lams)
    else:
        lams = lams[: int(rng.integers(1, G + 2))] * 0.999  # off any counted grid: walked
    # t from the lowest in exp range up to 1, and within 1e-3 of 1
    lo = max(0.0, 1.0 - 700.0 / cost.beta) if cost.variant == "entropic" else 0.0
    near_one = 1.0 - rng.uniform() * 1e-3 * (1.0 - lo)
    ts = rng.choice([lo, 1.0, rng.uniform(lo, 1.0), near_one], size=lams.size)
    B = bound_B(cost, ts)
    read = loss_reader(data, kind, lams)
    block = read()
    mean = read.mean()
    # the mean read from the counts is the mean of the losses, up to rounding
    assert mean.shape == (lams.size,)
    assert np.all(np.abs(mean - block.mean(axis=1)) <= (2 * n + 4) * 2.0**-53)
    if kind is MISS:
        assert mean.tolist() == block.mean(axis=1).tolist()  # a count over n, exact
    got = _certificate(mean, n, cost, ts, B)
    margin = _margin(cost, ts, B, n)
    for j in range(lams.size):
        assert got[j] <= oracle_value(block[j], cost, ts[j]) + margin[j]


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("n", [1, 800])
def test_margin_covers_the_worst_rounding_of_the_mean(cost, n):
    # a constant column has no Jensen gap, so a mean read (n + 2) 2^-53
    # above the loss, the most the margin's derivation allows, must still
    # stay within the margin; at a large entropic beta with t near 1 this
    # takes the margin's slope term, as a margin of max(B, 1) alone is
    # smaller than the slope times that rounding
    lo = max(0.0, 1.0 - 700.0 / cost.beta) if cost.variant == "entropic" else 0.0
    for t in (lo, (lo + 1.0) / 2, 1.0):
        ts = np.array([t])
        B = bound_B(cost, ts)
        for loss in (0.0, 0.3, 1.0 - 1e-6, 1.0):
            got = _certificate(np.array([loss + (n + 2) * 2.0**-53]), n, cost, ts, B)[0]
            assert got <= oracle_value(np.full(n, loss), cost, t) + _margin(cost, ts, B, n)[0]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.sampled_from([1, 4, 12]),
    G=st.one_of(st.integers(1, 40), st.sampled_from([e + d - 1 for e in EDGES for d in (-1, 0, 1)])),
    kind=st.sampled_from([FNR, MISS]),
    cost=st.sampled_from(COSTS),
    fixed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_skipping_crc_matches_the_column_oracle(n, m, G, kind, cost, fixed, seed):
    # alpha at a column's exact t-free bound (n L + 1)/(n + 1) and one ulp
    # on each side of it, and the same less the skip's margin, where the
    # probe of that column turns: the scan that starts past the columns it
    # skips decides, traces and bounds every column as the oracle does
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, 2 * n, m, G, kind)
    grid = LambdaGrid(G)
    count_pool(pool, grid.values)
    opt, cal = split_dataset(pool, SplitSpec(n, n, 0), seed)[:2]
    fixed_t = float(rng.uniform()) if fixed else None
    lams = grid.values
    cal_losses, opt_losses = losses_at(cal, kind, lams), losses_at(opt, kind, lams)
    exact = [float((n * sum(map(Fraction, col.tolist())) / n + 1) / (n + 1)) for col in cal_losses.T]
    margin = float(_t_free_margin(cost, n)) if in_exp_range(cost) else 0.0
    picks = {0, lams.size - 1, int(rng.integers(lams.size))} | {e - 1 for e in EDGES if e < lams.size}
    for j in picks:
        for at in (exact[j], exact[j] - margin):
            for alpha in (np.nextafter(at, 0.0), at, np.nextafter(at, math.inf)):
                spec = ReliabilitySpec(max(float(alpha), 0.0), 0.2)
                try:
                    want = oce_crc_scan(cal_losses, opt_losses, spec.alpha, lams, cost, fixed_t)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        select_oce_crc(cal, opt, spec, grid, cost, kind, fixed_t=fixed_t)
                    continue
                out = select_oce_crc(cal, opt, spec, grid, cost, kind, fixed_t=fixed_t)
                assert (out.lambda_hat, out.feasible) == want[:2]
                assert traced(out) == want[2]  # lam, bound, passed and t, in scan order


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 200),
    m=st.sampled_from([1, 5, 300]),
    G=st.integers(1, 30),
    kind=st.sampled_from([FNR, MISS]),
    cost=st.sampled_from([c for c in COSTS if in_exp_range(c)]),
    identical=st.booleans(),
    counted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_t_free_bound_is_at_most_each_lower_test_value_plus_the_margin(
    n, m, G, kind, cost, identical, counted, seed
):
    # a skipped column lies below the probed one, so the probed column's
    # float t-free bound must stay within the margin of the float test
    # value of every column at or below it, at any t in [0, 1]; a constant
    # column of the average cost, whose B is 1 at every t, has the t-free
    # bound as its exact test value, so only the margin covers the rounding
    rng = np.random.default_rng(seed)
    data = random_pool(rng, n, m, G, kind, identical)
    lams = LambdaGrid(G).values
    if counted:
        count_pool(data, lams)
    else:
        lams = lams[: int(rng.integers(1, G + 2))] * 0.999  # off any counted grid: walked
    read = loss_reader(data, kind, lams)
    block = read()
    mean = np.concatenate([read.mean(slice(j, j + 1)) for j in range(lams.size)])  # as probed
    assert np.all(np.abs(mean - block.mean(axis=1)) <= (2 * n + 4) * 2.0**-53)
    bound = _certificate(mean, n, OceCost.average(), 0.0, 1.0)  # the t-free bound, as probed
    ts = [0.0, 1.0, float(rng.uniform()), 1.0 - float(rng.uniform()) * 1e-3]
    lowest = np.minimum.accumulate([min(oracle_value(col, cost, t) for t in ts) for col in block])
    assert np.all(bound <= lowest + _t_free_margin(cost, n))


@pytest.mark.parametrize("cost", [c for c in COSTS if in_exp_range(c)])
@pytest.mark.parametrize("n", [1, 800])
def test_t_free_margin_covers_the_worst_rounding_of_the_mean(cost, n):
    # a mean read (n + 2) 2^-53 above a constant column's loss, the most the
    # margin's derivation allows, keeps the t-free bound within the margin
    # of the column's test value at any t
    for loss in (0.0, 0.3, 1.0 - 1e-6, 1.0):
        got = _certificate(np.array([loss + (n + 2) * 2.0**-53]), n, OceCost.average(), 0.0, 1.0)[0]
        for t in (0.0, 0.5, 1.0):
            assert got <= oracle_value(np.full(n, loss), cost, t) + _t_free_margin(cost, n)


@pytest.mark.parametrize("cost", [c for c in COSTS if in_exp_range(c)])
@pytest.mark.parametrize("n", [2**22, 2**30])
def test_margins_cover_the_derivation_at_any_n(cost, n):
    # the derivation bounds the rounding by (2n + 12) 2^-53 (max(B, 1) +
    # phi'); past 2^22 rows that exceeds 2^-30 (max(B, 1) + phi'), and both
    # margins grow with n to cover it; below, they are 2^-30 (...) exactly
    for t in (0.0, 0.5, 1.0):
        B = float(bound_B(cost, t))
        scale = max(B, 1.0) + slope(cost, t)
        assert _margin(cost, np.array([t]), np.array([B]), n)[0] >= (2 * n + 12) * 2.0**-53 * scale
        assert _margin(cost, np.array([t]), np.array([B]), 800)[0] == 2.0**-30 * scale
        assert _margin(cost, np.array([t]), np.array([B]), 2**22 - 6)[0] == 2.0**-30 * scale
    scale = float(bound_B(cost, 0.0)) + slope(cost, 0.0)
    assert _t_free_margin(cost, n) >= (2 * n + 12) * 2.0**-53 * scale
    assert _t_free_margin(cost, 800) == 2.0**-30 * scale


def test_skip_is_off_past_the_exp_range(monkeypatch):
    # at beta 710, B(0) = phi(1) overflows, so no column is skipped: the
    # first block's objective overflows at lambda = 0.2 (t = 0), past the
    # pass at lambda = 0 (t = 1), and the column-by-column retry still finds
    # that pass; an alpha that nothing below 0.2 passes raises
    cal = Dataset(np.full((10, 1), 0.8), np.ones((10, 1), dtype=bool))
    cost, grid = OceCost.entropic(710), LambdaGrid(40)
    cal_losses = losses_at(cal, MISS, grid.values)
    with pytest.raises(OverflowError):
        bound_B(cost, 0.0)
    overflowed = []
    real = calibrate.bound_B

    def recorded(cost, t):
        try:
            return real(cost, t)
        except OverflowError:
            overflowed.append(np.size(t))
            raise

    monkeypatch.setattr(calibrate, "bound_B", recorded)
    out = select_oce_crc(cal, cal, ReliabilitySpec(2.0, 0.2), grid, cost, MISS)
    want = oce_crc_scan(cal_losses, cal_losses, 2.0, grid.values, cost)
    assert (out.lambda_hat, out.feasible, traced(out)) == want
    assert out.lambda_hat == 0.0 and max(overflowed) == calibrate._FIRST_BLOCK
    with pytest.raises(OverflowError):
        oce_crc_scan(cal_losses, cal_losses, 0.5, grid.values, cost)
    with pytest.raises(OverflowError):
        select_oce_crc(cal, cal, ReliabilitySpec(0.5, 0.2), grid, cost, MISS)


@pytest.fixture(scope="module")
def bench_pool():
    """The default pool, counted at G = 1000."""
    pool = generate_dataset(GeneratorParams(), 1781, seed=20240501)
    count_pool(pool, LambdaGrid(1000).values)
    return pool


@pytest.fixture(scope="module")
def bench_parts(bench_pool):
    """The opt and cal parts of ten splits of the default pool, counted at G = 1000."""
    return [split_dataset(bench_pool, SplitSpec(200, 800, 781), seed=seed)[:2] for seed in range(10)]


def recorded_t_widths(monkeypatch) -> list:
    """The width of each `optimize_t` call a selection makes from here on."""
    widths = []
    real = calibrate.optimize_t

    def recorded(losses, cost):
        widths.append(np.shape(losses)[1])
        return real(losses, cost)

    monkeypatch.setattr(calibrate, "optimize_t", recorded)
    return widths


def test_run_trial_never_computes_the_skipped_columns_t(bench_pool, monkeypatch):
    # a trial reads only lambda_hat and feasible, so it computes t for the
    # scanned columns alone; the skipped ones' t is computed, in one call,
    # only once the outcome's trace is read
    widths = recorded_t_widths(monkeypatch)
    config = TrialConfig("oce-crc", OceCost.cvar(0.9), FNR, alpha=0.4, delta=0.2)
    for index in range(3):
        widths.clear()
        record = run_trial(bench_pool, config, index, master_seed=7)
        in_trial = list(widths)
        opt, cal, _ = split_dataset(bench_pool, config.split, mix64(7, index))
        widths.clear()
        out = select(cal, opt, config)
        assert widths == in_trial and (out.lambda_hat, out.feasible) == (record.lambda_hat, record.feasible)
        trace = out.trace
        assert widths[:-1] == in_trial  # one more call, for the skipped columns
        skipped = widths[-1]
        assert trace["lam"][:skipped].tolist() == config.grid.values[:skipped].tolist()
        assert not trace["passed"][:skipped].any()
        assert skipped >= len(trace) // 2


@pytest.mark.parametrize("cost, kind", [
    (OceCost.cvar(0.9), FNR), (OceCost.entropic(3), FNR), (OceCost.cvar(0.9), MISS),
])
def test_bench_shape_selections_equal_the_uncertified_scan(bench_parts, monkeypatch, cost, kind):
    # the selections a G = 1000 trial makes equal the uncertified scan, and
    # the certificate decides most of the columns they test: a certificate
    # that silently decides nothing would leave this bench's time unchanged
    computed = []
    real = calibrate.empirical_objective

    def counted(losses, cost, t):
        computed.append(np.size(t))
        return real(losses, cost, t)

    monkeypatch.setattr(calibrate, "empirical_objective", counted)
    widths = recorded_t_widths(monkeypatch)
    grid, spec = LambdaGrid(1000), ReliabilitySpec(0.4, 0.2)
    lams, tested, objectives, skipped = grid.values, 0, 0, 0
    for opt, cal in bench_parts:
        computed.clear()
        widths.clear()
        out = select_oce_crc(cal, opt, spec, grid, cost, kind)
        scanned_calls, objectives = len(widths), objectives + sum(computed)
        lam_hat, feasible, trace = oce_crc_scan(
            losses_at(cal, kind, lams), losses_at(opt, kind, lams), spec.alpha, lams, cost
        )
        want = np.array([(e.lam, e.passed, e.t) for e in trace], dtype=calibrate._TRACE)
        assert (out.lambda_hat, out.feasible) == (lam_hat, feasible)
        assert out.trace.tobytes() == want.tobytes()  # the first read, which makes the skipped rows
        tested += len(out.trace)
        skipped += sum(widths[scanned_calls:])  # their t, from the one call that read made
        assert out.bounds().tolist() == [e.bound for e in trace]
    assert objectives <= 0.2 * tested
    assert skipped >= 0.6 * tested
