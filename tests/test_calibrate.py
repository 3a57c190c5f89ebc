import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oce_rcps import calibrate, datagen, risk
from oce_rcps.bounds import _array_reader, _ucb_at_most, oce_risk_ucb, oce_risk_ucb_at_most
from oce_rcps.calibrate import (
    _MAX_BLOCK,
    LambdaGrid,
    ReliabilitySpec,
    _blocks,
    select_oce_crc,
    select_oce_rcps,
    select_rcps,
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
from oce_rcps.risk import (
    LossKind,
    OceCost,
    bound_B,
    empirical_objective,
    empirical_oce,
    losses_at,
    optimize_t,
)
from oracles import closed_form_oce, golden_section_minimize, golden_section_t, oce_crc_scan, oce_rcps_scan

FNR = LossKind("fnr")
MISS = LossKind("miscoverage")


def singletons(scores):
    """One-element examples, each with miscoverage loss 1{lambda < 1 - score}."""
    scores = np.asarray(scores, dtype=float).reshape(-1, 1)
    return Dataset(scores, np.ones(scores.shape, dtype=bool))


def traced(out):
    """The outcome's trace as (lam, bound, passed, t) rows in scan order,
    each bound from `bounds()`, as the column oracles list them."""
    trace = out.trace
    return list(zip(
        trace["lam"].tolist(), out.bounds().tolist(), trace["passed"].tolist(), trace["t"].tolist()
    ))


def random_dataset(rng, n, m=8):
    scores = np.empty((n, m))
    truth = np.zeros((n, m), dtype=bool)
    for i in range(n):
        scores[i] = rng.uniform(size=m)
        truth[i, rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = True
    return Dataset(scores, truth)


# ---------------------------------------------------------------- optimize_t

def test_optimize_t_cvar_order_statistic():
    losses = np.array([0.1, 0.2, 0.3, 0.4])
    t = optimize_t(losses, OceCost.cvar(0.5))
    assert t == pytest.approx(0.2)
    assert empirical_objective(losses, OceCost.cvar(0.5), t) == pytest.approx(0.35)


def test_optimize_t_average_is_zero():
    assert optimize_t(np.array([0.3, 0.9]), OceCost.average()) == 0.0


def test_optimize_t_entropic_log_mean_exp():
    t = optimize_t(np.array([0.0, 1.0]), OceCost.entropic(3))
    assert t == pytest.approx(math.log((1 + math.e**3) / 2) / 3)


def test_optimize_t_empty_rejected():
    # empirical_oce leaves the check to the optimize_t it calls first
    for minimize in (optimize_t, empirical_oce):
        with pytest.raises(ValueError, match="losses must be nonempty"):
            minimize(np.array([]), OceCost.average())


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
@pytest.mark.parametrize("cost", [OceCost.average(), OceCost.cvar(0.5), OceCost.entropic(3)])
def test_optimize_t_empty_block_rejected(shape, cost):
    with pytest.raises(ValueError, match="losses must be nonempty"):
        optimize_t(np.empty(shape), cost)


BLOCK_T_COSTS = [
    OceCost.average(),
    OceCost.cvar(0.0),
    OceCost.cvar(0.5),
    OceCost.cvar(0.9),
    OceCost.cvar(float(np.nextafter(1.0, 0.0))),
    *(OceCost.entropic(b) for b in (
        1e-100, 1e-5, float(np.nextafter(1e-4, 0.0)), 1e-4, float(np.nextafter(1e-4, 1.0)), 3.0, 50.0,
    )),
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 7, 33, 800]),
    st.integers(1, 40),
    st.sampled_from(BLOCK_T_COSTS),
    st.sampled_from(["uniform", "tied", "constant"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_block_t_matches_the_column_oracle(n, k, cost, values, column_major, seed):
    rng = np.random.default_rng(seed)
    if values == "uniform":
        block = rng.uniform(size=(n, k))
    elif values == "tied":
        block = rng.integers(0, 4, size=(n, k)) / 3.0  # FNR-like ratios with many ties
    else:
        block = np.full((n, k), rng.choice([0.0, 1.0, rng.uniform()]))
    if column_major:  # as the scan's loss matrices are laid out
        block = np.asfortranarray(block)
    want = np.array([closed_form_oce(block[:, j], cost)[1] for j in range(k)])
    got = optimize_t(block, cost)
    assert got.shape == (k,) and got.tobytes() == want.tobytes()
    one = optimize_t(block[:, 0], cost)
    assert type(one) is float and np.float64(one).tobytes() == want[:1].tobytes()


@pytest.mark.parametrize("cost", BLOCK_T_COSTS, ids=lambda c: f"{c.variant}:{c.beta!r}")
def test_block_t_matches_the_column_oracle_on_a_wide_block(cost):
    # thousands of columns: enough for `np.log` or `np.log1p` over the
    # means to round some of them differently from the scalar `math` log
    block = np.asfortranarray(np.random.default_rng(67).uniform(size=(50, 3000)))
    want = np.array([closed_form_oce(block[:, j], cost)[1] for j in range(block.shape[1])])
    assert optimize_t(block, cost).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "cost", [OceCost.entropic(1), OceCost.cvar(0.5), OceCost.cvar(0.9)]
)
def test_golden_section_agrees_with_closed_form(cost):
    rng = np.random.default_rng(17)
    for _ in range(10):
        losses = rng.uniform(size=50)
        tc = optimize_t(losses, cost)
        tg = golden_section_t(losses, cost)
        fc = empirical_objective(losses, cost, tc)
        fg = empirical_objective(losses, cost, tg)
        assert abs(fc - fg) < 1e-5


def test_golden_section_minimizer_quadratic():
    t = golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert t == pytest.approx(0.3, abs=1e-5)


# ---------------------------------------------------------------- OCE-CRC

def test_crc_worked_instance():
    cal = singletons([0.6, 0.8])
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.35, 0.2), LambdaGrid(1000),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    # at lambda=0.4 both losses vanish: (2/3)*0 + 1/3 = 0.3333 <= 0.35
    assert out.lambda_hat == pytest.approx(0.4)
    assert out.feasible
    assert traced(out)[-1][1] == pytest.approx(1.0 / 3.0)


def test_crc_passes_at_zero_when_alpha_large():
    cal = singletons([1.0] * 4)  # zero loss even at lambda = 0
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.5, 0.2), LambdaGrid(10),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    assert out.lambda_hat == 0.0


def test_crc_infeasible_at_alpha_zero():
    cal = singletons([0.5] * 3)
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.0, 0.2), LambdaGrid(10),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    assert not out.feasible
    assert out.lambda_hat == 1.0
    assert not out.trace["passed"].any()


def test_crc_ignores_delta_bit_identical():
    rng = np.random.default_rng(23)
    cal = random_dataset(rng, 30)
    opt = random_dataset(rng, 10)
    outs = [
        select_oce_crc(
            cal, opt, ReliabilitySpec(0.3, d), LambdaGrid(50), OceCost.cvar(0.8), FNR
        )
        for d in (0.05, 0.2, 0.9)
    ]
    for o in outs[1:]:
        assert o.lambda_hat == outs[0].lambda_hat
        assert traced(o) == traced(outs[0])  # lam, bound, passed and t


# ---------------------------------------------------------------- RCPS family

def test_rcps_alpha_one_selects_zero():
    rng = np.random.default_rng(29)
    cal = random_dataset(rng, 20)
    out = select_rcps(cal, ReliabilitySpec(1.0, 0.2), LambdaGrid(10), FNR)
    assert out.feasible and out.lambda_hat == 0.0


def test_rcps_zero_losses_above_threshold():
    # all truth scores are 0.5, so FNR is 0 for every lambda >= 0.5
    cal = Dataset(np.full((800, 4), 0.5), np.ones((800, 4), dtype=bool))
    out = select_rcps(cal, ReliabilitySpec(0.1, 0.2), LambdaGrid(10), FNR)
    assert out.feasible
    assert out.lambda_hat <= 0.5


def test_rcps_single_example_infeasible():
    cal = singletons([0.7])
    out = select_rcps(cal, ReliabilitySpec(0.5, 0.5), LambdaGrid(10), MISS)
    assert not out.feasible and out.lambda_hat == 1.0


def test_oce_rcps_alpha_zero_infeasible():
    rng = np.random.default_rng(31)
    cal = random_dataset(rng, 50)
    out = select_oce_rcps(
        cal, random_dataset(rng, 20), ReliabilitySpec(0.0, 0.2), LambdaGrid(10),
        OceCost.average(), FNR,
    )
    assert not out.feasible and out.lambda_hat == 1.0


def test_oce_rcps_average_reduces_to_rcps():
    rng = np.random.default_rng(37)
    for _ in range(5):
        cal = random_dataset(rng, 40)
        spec = ReliabilitySpec(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.4))
        grid = LambdaGrid(20)
        a = select_oce_rcps(
            cal, None, spec, grid, OceCost.average(), FNR, fixed_t=0.0
        )
        b = select_rcps(cal, spec, grid, FNR)
        assert a.lambda_hat == b.lambda_hat
        assert a.feasible == b.feasible
        assert traced(a) == traced(b)


def test_suffix_property():
    rng = np.random.default_rng(41)
    for _ in range(10):
        cal = random_dataset(rng, 60)
        spec = ReliabilitySpec(rng.uniform(0.2, 0.8), 0.2)
        out = select_oce_rcps(
            cal, random_dataset(rng, 20), spec, LambdaGrid(25), OceCost.cvar(0.8), FNR
        )
        if out.feasible:
            assert out.lambda_hat in set(LambdaGrid(25).values)
            assert out.trace["passed"][out.trace["lam"] >= out.lambda_hat].all()


def test_grid_refinement_monotonicity():
    rng = np.random.default_rng(43)
    cal = random_dataset(rng, 80)
    opt = random_dataset(rng, 30)
    spec = ReliabilitySpec(0.5, 0.2)
    coarse = select_oce_rcps(cal, opt, spec, LambdaGrid(20), OceCost.cvar(0.8), FNR)
    fine = select_oce_rcps(cal, opt, spec, LambdaGrid(40), OceCost.cvar(0.8), FNR)
    assert coarse.feasible and fine.feasible
    assert fine.lambda_hat <= coarse.lambda_hat + 1e-12
    assert coarse.lambda_hat - fine.lambda_hat <= 1.0 / 20 + 1e-12


def test_delta_monotonicity():
    rng = np.random.default_rng(47)
    cal = random_dataset(rng, 100)
    opt = random_dataset(rng, 30)
    lams = []
    for delta in (0.05, 0.1, 0.2, 0.4):
        out = select_oce_rcps(
            cal, opt, ReliabilitySpec(0.5, delta), LambdaGrid(40), OceCost.cvar(0.8), FNR
        )
        lams.append(out.lambda_hat)
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def staircase(G):
    """Singleton scores whose miscoverage at lambda = j/G counts the examples
    with k >= j, two per k < G, each followed by a zero-loss one: the mean
    loss rises at every step of the descending scan. The WSR UCB reads the
    rows in order, and in this order it rises at every step too; in a random
    order a step whose flipped rows come late can leave it unchanged."""
    steps = [1.0 - (k + 0.5) / G for k in range(G) for _ in range(2)]
    return np.array([score for step in steps for score in (step, 1.0)])


def stop_alphas(bounds, upward):
    """Alphas at which a scan over `bounds` (in scan order) stops on the first
    or on the last column of a block, and whether every such column can be a
    stop. A CRC scan stops at the first bound <= alpha, an RCPS scan at the
    first bound > alpha."""
    alphas, every_edge = set(), True
    n = len(bounds)
    position = (lambda col: col) if upward else (lambda col: n - 1 - col)  # in scan order
    for p in {position(col) for lo, hi in _blocks(n, upward) for col in (lo, hi - 1)}:
        if upward:
            alpha = bounds[p]
            stops = alpha < min(bounds[:p], default=math.inf)
        else:
            alpha = max(bounds[:p], default=0.0)
            stops = bounds[p] > alpha
        if stops:
            alphas.add(alpha)
        every_edge &= stops
    return alphas, every_edge


# the first block edges of the schedule, counted in grid columns from the scan's start
EDGES = [hi for _, hi in _blocks(10_000, True)][:3]


@pytest.mark.parametrize("G", sorted({1, 7, 31, 32, 33, 100} | {e + d for e in EDGES for d in (-1, 0, 1)}))
def test_block_scan_matches_column_oracle(G):
    rng = np.random.default_rng(53 + G)
    cal, opt = singletons(staircase(G)), singletons(rng.permutation(staircase(G))[: G + 5])
    lams = LambdaGrid(G).values
    cal_losses, opt_losses = losses_at(cal, MISS, lams), losses_at(opt, MISS, lams)
    oracles = (
        (select_oce_crc, True, lambda alpha, cost, fixed_t: oce_crc_scan(
            cal_losses, opt_losses, alpha, lams, cost, fixed_t)),
        (select_oce_rcps, False, lambda alpha, cost, fixed_t: oce_rcps_scan(
            cal_losses, opt_losses, alpha, 0.2, lams, cost, fixed_t)),
    )
    for select, upward, scan in oracles:
        for cost, fixed_t in ((OceCost.average(), 0.0), (OceCost.cvar(0.8), None),
                              (OceCost.entropic(3), None)):
            # every column tested: no pass going up, no failure going down
            full = scan(-math.inf if upward else math.inf, cost, fixed_t)[2]
            assert len(full) == G + 1
            bounds = [e.bound for e in full]
            alphas, every_edge = stop_alphas(bounds, upward)
            # the staircase makes every column a record for the average cost
            assert every_edge or cost.variant != "average"
            alphas.add(np.nextafter(min(bounds), 0.0) if upward else max(bounds))  # no stop
            alphas.update(rng.uniform(min(bounds), max(bounds), size=3).tolist())
            for alpha in sorted(alphas):
                out = select(
                    cal, opt, ReliabilitySpec(alpha, 0.2), LambdaGrid(G), cost, MISS,
                    fixed_t=fixed_t,
                )
                lam_hat, feasible, trace = scan(alpha, cost, fixed_t)
                assert (out.lambda_hat, out.feasible) == (lam_hat, feasible)
                assert traced(out) == trace  # lam, bound, passed and t, in scan order


@pytest.fixture(scope="module")
def parts_by_grid():
    """The opt and cal parts of one pool's rows counted at each grid G."""
    rows = generate_dataset(GeneratorParams(), 400, seed=11)
    parts = {}
    for G in (16, 100, 1000):
        pool = Dataset(rows.scores, rows.truth)
        count_pool(pool, LambdaGrid(G).values)
        parts[G] = split_dataset(pool, SplitSpec(100, 300, 0), seed=3)[:2]
    return parts


# (method, cost, fixed t, alpha); entropic:1e4 overflows exp at every column
# whose t is below 1 - 709/1e4, at 0.4 in a column the scan reaches, and
# at 1.0 (G = 16) in its first block, past the stop at its first column
SCHEDULE_CASES = [
    ("rcps", OceCost.average(), 0.0, 0.4),
    *(("oce-rcps", cost, None, 0.4) for cost in (OceCost.average(), OceCost.cvar(0.9), OceCost.entropic(3))),
    ("oce-rcps", OceCost.cvar(0.9), 0.3, 0.4),
    ("oce-rcps", OceCost.entropic(3), 0.1, 0.4),
    *(("oce-crc", cost, None, 0.4) for cost in (OceCost.average(), OceCost.cvar(0.9), OceCost.entropic(3))),
    ("oce-crc", OceCost.cvar(0.9), 0.3, 0.4),
    ("oce-crc", OceCost.entropic(1e4), None, 0.4),
    ("oce-crc", OceCost.entropic(1e4), None, 1.0),
]


@pytest.mark.parametrize("G", [16, 100, 1000])
def test_traces_are_the_same_at_any_block_width(parts_by_grid, G, monkeypatch):
    # width only batches columns: the schedule's scan gives the trace bytes
    # and the lambda_hat of a scan that tests one column per block
    opt, cal = parts_by_grid[G]
    overflowed = []  # the width of each t vector whose CRC objective overflowed

    def recorded(fn):
        def call(*args):
            try:
                return fn(*args)
            except OverflowError:
                overflowed.append(np.size(args[-1]))
                raise
        return call

    for name in ("empirical_objective", "bound_B"):
        monkeypatch.setattr(calibrate, name, recorded(getattr(calibrate, name)))

    def select(method, cost, fixed_t, alpha):
        spec = ReliabilitySpec(alpha, 0.2)
        try:
            if method == "rcps":
                return select_rcps(cal, spec, LambdaGrid(G), FNR)
            chosen = select_oce_crc if method == "oce-crc" else select_oce_rcps
            return chosen(cal, opt, spec, LambdaGrid(G), cost, FNR, fixed_t=fixed_t)
        except OverflowError:
            return None

    retested = False
    for case in SCHEDULE_CASES:
        overflowed.clear()
        got = select(*case)
        retested |= got is not None and any(width > 1 for width in overflowed)
        with monkeypatch.context() as one_column:
            one_column.setattr(calibrate, "_FIRST_BLOCK", 1)
            one_column.setattr(calibrate, "_MAX_BLOCK", 1)
            want = select(*case)
        if want is None:
            assert got is None, case
            continue
        assert got.trace.tobytes() == want.trace.tobytes(), case
        assert (got.lambda_hat, got.feasible) == (want.lambda_hat, want.feasible), case
    # at G = 16 the overflow past the stop is in the first block of 16, so
    # the scan retests that block column by column
    assert retested == (G == 16)


def test_crc_entropic_overflow_past_the_stop_is_not_reached():
    # miscoverage is 1 below lambda = 0.5, where t = 1 and the objective is 1,
    # and 0 from there on, where t = 0 and exp(710 * (1 - t)) overflows
    cal = singletons([0.5] * 10)
    cost, grid = OceCost.entropic(710), LambdaGrid(10)
    cal_losses = losses_at(cal, MISS, grid.values)
    out = select_oce_crc(cal, cal, ReliabilitySpec(2.0, 0.2), grid, cost, MISS)
    want = oce_crc_scan(cal_losses, cal_losses, 2.0, grid.values, cost)
    assert (out.lambda_hat, out.feasible, traced(out)) == want
    assert out.lambda_hat == 0.0
    with pytest.raises(OverflowError):
        oce_crc_scan(cal_losses, cal_losses, 0.5, grid.values, cost)
    with pytest.raises(OverflowError):
        select_oce_crc(cal, cal, ReliabilitySpec(0.5, 0.2), grid, cost, MISS)


@pytest.mark.parametrize("method", ["wsr", "hoeffding"])
@pytest.mark.parametrize("kind, cost, fixed_t", [
    ("rcps", OceCost.average(), 0.0),
    ("oce-rcps", OceCost.cvar(0.8), None),
    ("oce-rcps", OceCost.entropic(3), None),
    ("oce-rcps", OceCost.average(), None),
    ("oce-rcps", OceCost.cvar(0.8), 0.3),
])
def test_rcps_bounds_are_the_ucb_of_the_tested_columns(kind, cost, fixed_t, method):
    rng = np.random.default_rng(59)
    cal, opt = random_dataset(rng, 200), random_dataset(rng, 25)
    spec = ReliabilitySpec(0.8, 0.2)  # most scans cross a block boundary at G = 100
    if kind == "rcps":
        out = select_rcps(cal, spec, LambdaGrid(100), FNR, bound_method=method)
    else:
        out = select_oce_rcps(
            cal, opt, spec, LambdaGrid(100), cost, FNR, fixed_t=fixed_t, bound_method=method
        )
    trace = out.trace.copy()
    want = oce_risk_ucb(losses_at(cal, FNR, trace["lam"]), cost, trace["t"], 0.2, method)
    assert len(trace) > 1
    assert out.bounds().tolist() == want.tolist()
    assert out.bounds().tolist() == want.tolist()  # a second call gives the same
    assert out.trace.tobytes() == trace.tobytes()  # and the trace is left as it was


def test_crc_bounds_are_the_objectives_of_the_tested_columns():
    rng = np.random.default_rng(61)
    cal, opt = random_dataset(rng, 60), random_dataset(rng, 25)
    out = select_oce_crc(cal, opt, ReliabilitySpec(0.3, 0.2), LambdaGrid(40), OceCost.cvar(0.8), FNR)
    assert len(out.trace) > 1
    # the overflow fixture's upward scan retests column by column and stops
    # at its first column, short of the columns that overflow
    single = singletons([0.5] * 10)
    short = select_oce_crc(
        single, single, ReliabilitySpec(2.0, 0.2), LambdaGrid(10), OceCost.entropic(710), MISS
    )
    for outcome, data, cost, loss in ((out, cal, OceCost.cvar(0.8), FNR),
                                      (short, single, OceCost.entropic(710), MISS)):
        n, trace = len(data), outcome.trace.copy()
        want = [
            (n / (n + 1.0)) * empirical_objective(losses_at(data, loss, [lam])[:, 0], cost, t)
            + bound_B(cost, t) / (n + 1.0)
            for lam, t in zip(trace["lam"].tolist(), trace["t"].tolist())
        ]
        first = outcome.bounds()
        assert first.tolist() == want
        first[:] = -1.0  # each call gives a fresh array
        assert outcome.bounds().tolist() == want
        assert outcome.trace.tobytes() == trace.tobytes()  # and the trace is left as it was


@pytest.mark.parametrize("source", ["whole", "uncounted", "other-grid"])
@pytest.mark.parametrize("method", ["oce-crc", "oce-rcps", "rcps"])
def test_selections_leave_their_inputs_alone(source, method):
    # a selection counts the pool its splits view, and leaves each split
    # holding the pool and the rows it was made with
    rows = generate_dataset(GeneratorParams(m=20), 120, seed=5)
    if source == "whole":
        opt, cal = (Dataset(rows.scores[i:j], rows.truth[i:j]) for i, j in ((0, 30), (30, 120)))
    else:
        pool = Dataset(rows.scores, rows.truth)
        if source == "other-grid":  # a part of a pool counted on another grid
            count_pool(pool, LambdaGrid(7).values)
        opt, cal, _ = split_dataset(pool, SplitSpec(30, 60, 30), seed=3)
    held = [(data._pool, data._rows) for data in (cal, opt)]
    spec, grid, cost = ReliabilitySpec(0.4, 0.2), LambdaGrid(20), OceCost.cvar(0.8)
    if method == "rcps":
        select_rcps(cal, spec, grid, FNR)
    else:
        (select_oce_crc if method == "oce-crc" else select_oce_rcps)(cal, opt, spec, grid, cost, FNR)
    for data, (pool, rows) in zip((cal, opt), held):
        assert data._pool is pool and data._rows is rows


def test_empty_cal_rejected():
    empty = singletons([])
    with pytest.raises(ValueError):
        select_rcps(empty, ReliabilitySpec(0.5, 0.2), LambdaGrid(5), FNR)
    with pytest.raises(ValueError):
        select_oce_crc(empty, empty, ReliabilitySpec(0.5, 0.2), LambdaGrid(5), OceCost.average(), FNR)


@pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
def test_reliability_spec_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        ReliabilitySpec(alpha, 0.2)


def test_grid_values_include_endpoints():
    grid = LambdaGrid(7)
    assert grid.values[0] == 0.0 and grid.values[-1] == 1.0
    assert np.all(np.diff(grid.values) > 0)
    with pytest.raises(ValueError):
        LambdaGrid(0)


@pytest.mark.parametrize("resolution", [2.5, 4.0, True, False, "10", None])
def test_grid_resolution_must_be_an_int(resolution):
    # LambdaGrid(2.5) would hold 1.2 and no 1; LambdaGrid(True) would be G = 1
    with pytest.raises(ValueError, match="resolution must be an integer"):
        LambdaGrid(resolution)


@pytest.mark.parametrize("t", [math.nan, -1e-300, 1.0 + 2**-52, math.inf, -1.0])
def test_both_selectors_reject_a_fixed_t_outside_the_loss_range(t):
    # bound_B holds the rule, and every t either selector tests reaches it
    # before any phi: at t = -1, entropic:800 would overflow exp first
    cal = random_dataset(np.random.default_rng(61), 30)
    spec, grid = ReliabilitySpec(0.5, 0.2), LambdaGrid(20)
    bad = r"t must lie in \[0, LOSS_MAX\]"
    for cost in (OceCost.average(), OceCost.cvar(0.9), OceCost.entropic(3), OceCost.entropic(800)):
        with pytest.raises(ValueError, match=bad):
            bound_B(cost, t)
        with pytest.raises(ValueError, match=bad):
            bound_B(cost, np.array([0.5, t]))
        for select in (select_oce_crc, select_oce_rcps):
            with pytest.raises(ValueError, match=bad):
                select(cal, None, spec, grid, cost, FNR, fixed_t=t)


def test_opt_split_required_unless_t_fixed():
    cal = random_dataset(np.random.default_rng(59), 10)
    for select in (select_oce_crc, select_oce_rcps):
        with pytest.raises(ValueError, match="opt split required"):
            select(cal, None, ReliabilitySpec(0.5, 0.2), LambdaGrid(5), OceCost.cvar(0.8), FNR)


# ---------------------------------------------------------------- memory

@pytest.fixture(scope="module")
def counted_parts():
    """The opt and cal parts, of the default sizes, of a pool counted at G = 1000."""
    pool = generate_dataset(GeneratorParams(), 1000, seed=11)
    count_pool(pool, LambdaGrid(1000).values)
    return split_dataset(pool, SplitSpec(200, 800, 0), seed=3)[:2]


@pytest.mark.parametrize("method", ["rcps", "oce-rcps", "oce-crc"])
def test_scan_holds_loss_blocks_not_the_whole_grid(counted_parts, method):
    # a scan reads each block's loss columns as it tests them, so it holds a
    # few float64 blocks of at most (n_cal, _MAX_BLOCK) at a time and never
    # an (n_cal, G + 1) loss matrix of the whole grid
    opt, cal = counted_parts
    grid, spec = LambdaGrid(1000), ReliabilitySpec(0.4, 0.2)
    select = {
        "rcps": lambda: select_rcps(cal, spec, grid, FNR),
        "oce-rcps": lambda: select_oce_rcps(cal, opt, spec, grid, OceCost.entropic(3), FNR),
        "oce-crc": lambda: select_oce_crc(cal, opt, spec, grid, OceCost.cvar(0.9), FNR),
    }[method]
    select()  # what a first call leaves cached is not the scan's
    tracemalloc.start()
    try:
        out = select()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block, matrix = (len(cal) * cols * 8 for cols in (_MAX_BLOCK, grid.resolution + 1))
    assert len(out.trace) > 4 * _MAX_BLOCK  # the scan crosses several of the widest blocks
    assert peak < 5 * block < matrix / 3


# ---------------------------------------------------------------- count reads

@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 130),
    m=st.sampled_from([1, 5, 300]),  # 300 elements: uint16 counts
    G=st.integers(1, 40),
    kind=st.sampled_from([FNR, MISS]),
    cost=st.sampled_from([
        OceCost.average(), OceCost.entropic(3), OceCost.entropic(1e-6),
        OceCost.entropic(800), OceCost.cvar(0.0), OceCost.cvar(0.9),
    ]),
    delta=st.sampled_from([1e-9, 0.05, 0.2, 0.9]),
    alpha=st.floats(0.0, 1.2),
    method=st.sampled_from(["wsr", "hoeffding"]),
    part=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_reader_decides_as_the_converted_block(n, m, G, kind, cost, delta, alpha, method, part, seed):
    # the decision the scan makes from the kept counts, read a row chunk at
    # a time, equals the public decision on the block losses_at converts
    rng = np.random.default_rng(seed)
    size = 2 * n if part else n
    scores = rng.integers(0, 2 * G + 1, size=(size, m)) / (2 * G)  # ties with the thresholds
    truth = rng.uniform(size=(size, m)) < rng.uniform(0.1, 0.9)
    if kind is FNR:
        truth[np.arange(size), rng.integers(0, m, size=size)] = True
    pool = Dataset(scores, truth)
    grid = LambdaGrid(G).values
    count_pool(pool, grid)
    data = split_dataset(pool, SplitSpec(n, n, 0), seed)[1] if part else pool
    lo = int(rng.integers(0, G + 1))
    lams = grid[lo:int(rng.integers(lo + 1, G + 2))]
    ts = rng.choice([0.0, 1.0, rng.uniform()], size=lams.size)
    block = losses_at(data, kind, lams)
    assert block.shape == (n, lams.size) and data._counts[1].dtype == np.min_scalar_type(m)
    assert block.dtype == np.float64 and block.flags.f_contiguous  # each column contiguous
    read, reads = loss_reader(data, kind, lams), []

    def recorded(cols, rows):
        reads.append((cols, rows))
        return read(cols, rows)

    try:
        want = oce_risk_ucb_at_most(block, cost, ts, delta, alpha, method=method)
    except OverflowError:
        with pytest.raises(OverflowError):
            _ucb_at_most(recorded, n, cost, ts, delta, alpha, method)
        assert reads == []  # raised before any row was read
        return
    got = _ucb_at_most(recorded, n, cost, ts, delta, alpha, method)
    assert got.tolist() == want.tolist()
    # every read is C-contiguous float64 rows, one per column, and so is
    # the array reader's read of the converted block
    array_read = _array_reader(block, ts)[0]
    for cols, rows in reads:
        want_rows = block.T[cols][:, rows]
        for rows_read in (read(cols, rows), array_read(cols, rows)):
            assert rows_read.flags.c_contiguous and rows_read.dtype == np.float64
            assert rows_read.shape == want_rows.shape and np.array_equal(rows_read, want_rows)


def zero_loss_pool(n, empty_row=None):
    """n three-element examples whose truth element scores 1, so every
    loss is 0 at every threshold and every column's capital crosses in the
    walk's first chunk; the truth of `empty_row` is empty."""
    scores = np.tile([1.0, 0.2, 0.1], (n, 1))
    truth = np.zeros((n, 3), dtype=bool)
    truth[:, 0] = True
    if empty_row is not None:
        truth[empty_row] = False
    return Dataset(scores, truth)


def recorded_count_reads(monkeypatch):
    """The row ranges each loss reader reads, one list per reader, at
    every name the reader is called through."""
    readers, real = [], datagen.loss_reader

    def loss_reader(dataset, kind, lams):
        read, reads = real(dataset, kind, lams), []
        readers.append(reads)

        def recorded(cols=slice(None), rows=slice(None)):
            reads.append(range(len(dataset))[rows])
            return read(cols, rows)

        return recorded

    for module in (calibrate, risk):
        monkeypatch.setattr(module, "loss_reader", loss_reader)
    return readers


SCAN_SELECTORS = {
    "rcps": lambda cal, spec, grid, loss: select_rcps(cal, spec, grid, loss),
    "oce-rcps": lambda cal, spec, grid, loss: select_oce_rcps(
        cal, None, spec, grid, OceCost.cvar(0.5), loss, fixed_t=0.0),
}


@pytest.mark.parametrize("method", sorted(SCAN_SELECTORS))
@pytest.mark.parametrize("part", [False, True])
def test_scan_reads_only_the_count_rows_its_walk_needs(monkeypatch, method, part):
    # every tested column crosses in its first chunk, so the scan reads rows
    # 0..31 of each block and converts none of the others
    pool, grid = zero_loss_pool(200), LambdaGrid(100)
    count_pool(pool, grid.values)
    cal = split_dataset(pool, SplitSpec(0, 100, 0), seed=4)[1] if part else pool
    readers = recorded_count_reads(monkeypatch)
    out = SCAN_SELECTORS[method](cal, ReliabilitySpec(0.4, 0.2), grid, FNR)
    assert out.lambda_hat == 0.0 and len(out.trace) == grid.resolution + 1
    assert readers == [[range(32)]] * len(list(_blocks(grid.resolution + 1, upward=False)))


@pytest.mark.parametrize("method", sorted(SCAN_SELECTORS))
@pytest.mark.parametrize("empty_row", [32, 99])
def test_fnr_empty_truth_past_the_first_chunk_is_rejected(method, empty_row):
    # the walk reads only rows 0..31 here (see above), but the FNR check
    # covers every row of the part before any column is decided
    cal = zero_loss_pool(100, empty_row)
    with pytest.raises(ValueError, match="FNR loss needs a nonempty truth set"):
        SCAN_SELECTORS[method](cal, ReliabilitySpec(0.4, 0.2), LambdaGrid(100), FNR)
    # miscoverage is defined on an empty truth set, and reads as before
    assert SCAN_SELECTORS[method](cal, ReliabilitySpec(0.4, 0.2), LambdaGrid(100), MISS).lambda_hat == 0.0
