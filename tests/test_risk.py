import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oce_rcps import datagen
from oce_rcps.calibrate import LambdaGrid, ReliabilitySpec, select_oce_crc, select_oce_rcps, select_rcps
from oce_rcps.datagen import (
    Dataset,
    GeneratorParams,
    SplitSpec,
    count_pool,
    generate_dataset,
    split_dataset,
)
from oce_rcps.risk import (
    LOSS_MAX,
    LossKind,
    OceCost,
    bound_B,
    empirical_objective,
    empirical_oce,
    losses_at,
    phi,
    relative_set_sizes,
    transformed_losses,
)
from oracles import ScoredExample, as_examples, build_prediction_set, closed_form_oce, compute_loss

FNR = LossKind("fnr")
MISS = LossKind("miscoverage")


def example(scores, truth):
    return ScoredExample(np.asarray(scores, dtype=float), frozenset(truth))


def dataset(scores, truths, m=None):
    """Dataset from n score rows of one width m and n truth index sets."""
    scores = np.asarray(scores, dtype=float).reshape(len(truths), -1 if truths else m)
    mask = np.zeros(scores.shape, dtype=bool)
    for row, truth in zip(mask, truths):
        row[list(truth)] = True
    return Dataset(scores, mask)


# ---------------------------------------------------------------- sets

def test_build_prediction_set_threshold():
    ex = example([0.9, 0.5, 0.1], {0})
    assert build_prediction_set(ex, 0.5).members == {0, 1}
    assert build_prediction_set(ex, 1.0).members == {0, 1, 2}
    assert build_prediction_set(ex, 0.0).members == frozenset()


def test_build_prediction_set_closed_threshold():
    ex = example([1.0, 0.3], {0})
    # lambda=0 means threshold 1; scores equal to 1 are still included
    assert build_prediction_set(ex, 0.0).members == {0}


@st.composite
def datasets_strategy(draw, nonempty_truth=False):
    """1 to 5 rows over one m per case: an (n, m) array holds no ragged rows."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 5))
    row = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=m, max_size=m)
    truth = st.sets(st.integers(0, m - 1), min_size=1 if nonempty_truth else 0, max_size=m)
    return dataset(draw(st.lists(row, min_size=n, max_size=n)),
                   draw(st.lists(truth, min_size=n, max_size=n)))


@given(datasets_strategy(), st.floats(0, 1), st.floats(0, 1))
def test_nesting(data, l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    for ex in as_examples(data):
        assert build_prediction_set(ex, lo).members <= build_prediction_set(ex, hi).members
    assert np.all(relative_set_sizes(data, lo) <= relative_set_sizes(data, hi))


@given(datasets_strategy(nonempty_truth=True), st.floats(0, 1), st.floats(0, 1))
def test_loss_monotone_in_lambda(data, l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    for kind in (FNR, MISS):
        loss_lo, loss_hi = losses_at(data, kind, [lo, hi]).T
        assert np.all(loss_lo >= loss_hi)
        assert np.all((0.0 <= loss_hi) & (loss_lo <= LOSS_MAX))


# ---------------------------------------------------------------- losses

def test_fnr_values():
    ex = example([0.9] * 6, range(4))
    full = build_prediction_set(ex, 1.0)
    assert compute_loss(FNR, ex, full) == 0.0
    half = ex.__class__(np.array([0.9, 0.9, 0.1, 0.1, 0.9, 0.9]), frozenset(range(4)))
    pset = build_prediction_set(half, 0.5)  # members: scores >= 0.5 -> {0,1,4,5}
    assert compute_loss(FNR, half, pset) == 0.5


def test_miscoverage_excluded_element():
    ex = example([0.9, 0.8, 0.1], {2})
    pset = build_prediction_set(ex, 0.5)
    assert pset.members == {0, 1}
    assert compute_loss(MISS, ex, pset) == 1.0


def test_fnr_empty_truth_rejected():
    ex = example([0.5], set())
    with pytest.raises(ValueError, match="FNR loss needs a nonempty truth set"):
        compute_loss(FNR, ex, build_prediction_set(ex, 1.0))


def reference_losses(kind, exs, lams):
    return np.array(
        [[compute_loss(kind, ex, build_prediction_set(ex, l)) for l in lams] for ex in exs]
    ).reshape(len(exs), len(lams))


def reference_rel_sizes(exs, lam):
    return [len(build_prediction_set(ex, lam).members) / max(len(ex.truth), 1) for ex in exs]


def test_fast_losses_match_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, n = rng.integers(1, 30), rng.integers(1, 6)
        scores = rng.uniform(size=(n, m))
        truths = [rng.choice(m, size=rng.integers(1, m + 1), replace=False) for _ in range(n)]
        data = dataset(scores, truths)
        exs = as_examples(data)
        lams = rng.uniform(size=7)
        for kind in (FNR, MISS):
            assert np.array_equal(losses_at(data, kind, lams), reference_losses(kind, exs, lams))
        for l in lams:
            assert relative_set_sizes(data, l).tolist() == reference_rel_sizes(exs, l)


@st.composite
def grid_cases(draw):
    """Up to 6 examples over one m whose scores sit on the thresholds
    1 - k/G (or at 0 and 1), with a shuffled grid that repeats some lambdas."""
    G = draw(st.integers(1, 12))
    grid = [k / G for k in range(G + 1)]
    levels = st.sampled_from(sorted({1.0 - lam for lam in grid} | {0.0, 1.0}))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(0, 6))
    scores = draw(st.lists(st.lists(levels, min_size=m, max_size=m), min_size=n, max_size=n))
    truths = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=m), min_size=n, max_size=n))
    lams = draw(st.permutations(grid + draw(st.lists(st.sampled_from(grid), max_size=4))))
    return dataset(scores, truths, m), lams


@settings(deadline=None)
@given(grid_cases())
def test_fast_path_matches_reference_on_grid(case):
    data, lams = case
    exs = as_examples(data)
    for kind in (FNR, MISS):
        if kind == FNR and not all(ex.truth for ex in exs):
            with pytest.raises(ValueError, match="FNR loss needs a nonempty truth set"):
                losses_at(data, kind, lams)
            continue
        assert np.array_equal(losses_at(data, kind, lams), reference_losses(kind, exs, lams))
    for l in lams:
        assert relative_set_sizes(data, l).tolist() == reference_rel_sizes(exs, l)


def test_fast_path_empty_dataset():
    empty = dataset([], [], m=3)
    for kind in (FNR, MISS):
        assert losses_at(empty, kind, [0.2, 0.7]).shape == (0, 2)
    assert relative_set_sizes(empty, 0.5).shape == (0,)


def test_relative_size_of_empty_truth_is_set_size():
    data = dataset([[0.9, 0.6, 0.1], [0.9, 0.6, 0.1]], [set(), {0, 1}])
    assert relative_set_sizes(data, 0.5).tolist() == [2.0, 1.0]
    assert losses_at(data, MISS, [0.0, 0.5]).tolist() == [[0.0, 0.0], [1.0, 0.0]]


# ---------------------------------------------------------------- kept counts

def uncounted(data):
    """A copy of `data` that was never counted, so its losses are walked."""
    return Dataset(np.array(data.scores), np.array(data.truth))


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def record_walks(monkeypatch):
    """The size of each dataset walked from here on."""
    seen, walk = [], datagen._walk_counts
    monkeypatch.setattr(datagen, "_walk_counts", lambda data, lams: seen.append(len(data)) or walk(data, lams))
    return seen


GRID = LambdaGrid(50).values


@pytest.fixture(scope="module")
def counted_pool():
    pool = generate_dataset(GeneratorParams(m=30), 120, seed=8)
    count_pool(pool, GRID)
    return pool


@pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.uint16), (300, np.uint16)])
def test_counts_fit_their_dtype_at_the_boundary(m, dtype):
    rng = np.random.default_rng(m)
    truth = rng.uniform(size=(6, m)) < 0.5
    truth[:2] = True  # every score lies below 1 - 0, so these rows count m at lam 0
    data = Dataset(rng.uniform(size=(6, m)), truth)
    lams = [0.0, 0.25, 0.5, 1.0]
    exs = as_examples(data)
    walked = datagen._walk_counts(data, np.asarray(lams))
    count_pool(data, lams)
    part = split_dataset(data, SplitSpec(2, 2, 2), seed=1)[1]
    for counts in (walked, data._pool.counts[1]):
        assert counts.dtype == dtype
        assert counts[:, 0].tolist() == truth.sum(axis=1).tolist()
    for kind in (FNR, MISS):
        assert np.array_equal(losses_at(data, kind, lams), reference_losses(kind, exs, lams))
        assert same(losses_at(part, kind, lams), losses_at(uncounted(part), kind, lams))


def test_counted_parts_read_any_columns_of_the_grid(counted_pool, monkeypatch):
    rng = np.random.default_rng(5)
    parts = (counted_pool, *split_dataset(counted_pool, SplitSpec(20, 60, 40), seed=3))
    runs = (GRID, GRID[7:39], [GRID[23]])  # read as a slice of the kept counts
    columns = (*runs, GRID[::-1], rng.choice(GRID, 17))
    cases = [(p, kind, lams) for p in parts for kind in (FNR, MISS) for lams in columns]
    expected = [losses_at(uncounted(p), kind, lams) for p, kind, lams in cases]
    walks = record_walks(monkeypatch)
    for (part, kind, lams), want in zip(cases, expected):
        walked = len(walks)
        assert same(losses_at(part, kind, lams), want)
        assert part._pool.counts[1] is counted_pool._pool.counts[1]  # read, not copied
        if any(lams is run for run in runs):
            assert len(walks) == walked


def test_off_grid_lambda_is_walked(counted_pool, monkeypatch):
    _, cal, _ = split_dataset(counted_pool, SplitSpec(20, 60, 40), seed=3)
    for lams in ([0.013], [GRID[3], 0.013]):
        want = losses_at(uncounted(cal), MISS, lams)
        with monkeypatch.context() as patch:
            walks = record_walks(patch)
            assert same(losses_at(cal, MISS, lams), want)
        assert walks == [len(cal)]


@pytest.mark.parametrize("lams", [[math.nan], [GRID[3], math.nan], [math.nan, GRID[4]], [*GRID[:9], math.nan]])
def test_nan_lambda_is_rejected(counted_pool, monkeypatch, lams):
    # a NaN is no point of a counted grid, so it reaches the off-grid
    # fallback, which would read an FNR of 1 and an empty set on every row
    part = split_dataset(counted_pool, SplitSpec(20, 60, 40), seed=3)[1]
    walks = record_walks(monkeypatch)
    for data in (counted_pool, part, uncounted(part)):
        for kind in (FNR, MISS):
            with pytest.raises(ValueError, match="lam must not be NaN"):
                losses_at(data, kind, lams)
        with pytest.raises(ValueError, match="lam must not be NaN"):
            relative_set_sizes(data, math.nan)
    assert walks == []


def test_part_of_a_part_composes_rows(counted_pool, monkeypatch):
    _, cal, _ = split_dataset(counted_pool, SplitSpec(20, 60, 40), seed=3)
    parts = split_dataset(cal, SplitSpec(10, 30, 20), seed=4)
    expected = [losses_at(uncounted(p), FNR, GRID) for p in parts]
    walks = record_walks(monkeypatch)
    for part, want in zip(parts, expected):
        assert same(losses_at(part, FNR, GRID), want)
    assert walks == []


def test_parts_of_an_empty_counted_pool_read_its_counts(monkeypatch):
    pool = Dataset(np.empty((0, 3)), np.empty((0, 3), dtype=bool))
    count_pool(pool, GRID)
    part = split_dataset(pool, SplitSpec(0, 0, 0), seed=1)[1]
    part_of_part = split_dataset(part, SplitSpec(0, 0, 0), seed=2)[1]
    walks = record_walks(monkeypatch)
    for data in (part, part_of_part):
        assert data._pool.counts is pool._pool.counts
        assert losses_at(data, MISS, GRID).shape == (0, GRID.size)
    assert walks == []


def test_count_on_the_counted_grid_is_a_no_op(monkeypatch):
    pool = generate_dataset(GeneratorParams(m=30), 60, seed=8)
    count_pool(pool, GRID)
    part = split_dataset(pool, SplitSpec(10, 30, 20), seed=4)[1]
    kept = pool._pool.counts
    walks = record_walks(monkeypatch)
    for data in (pool, part):
        count_pool(data, GRID)
        assert data._pool.counts is kept
    assert walks == []


@pytest.mark.parametrize("counted", [False, True])
def test_count_needs_a_strictly_increasing_grid(counted, monkeypatch):
    pool = generate_dataset(GeneratorParams(m=30), 60, seed=8)
    if counted:
        count_pool(pool, GRID)
    part = split_dataset(pool, SplitSpec(10, 30, 20), seed=4)[1]
    walks = record_walks(monkeypatch)
    bad = (GRID[::-1], np.concatenate([GRID[:9], GRID[8:]]), np.array([0.0, math.nan, 1.0]),
           np.array([math.nan]), GRID[None, :])
    for data in (pool, part):
        kept = data._pool.counts
        for lams in bad:
            with pytest.raises(ValueError, match="strictly increasing"):
                count_pool(data, lams)
            assert data._pool.counts is kept
    assert walks == []


def test_pool_with_empty_truth_row_counts_for_both_losses():
    rng = np.random.default_rng(9)
    truth = rng.uniform(size=(6, 5)) < 0.5
    truth[:, 0] = True
    truth[4] = False
    pool = Dataset(rng.uniform(size=(6, 5)), truth)
    count_pool(pool, GRID)  # counting ignores the loss kind
    held = 0
    for part in split_dataset(pool, SplitSpec(2, 2, 2), seed=1):
        assert same(losses_at(part, MISS, GRID), losses_at(uncounted(part), MISS, GRID))
        if part.truth.any(axis=1).all():
            assert same(losses_at(part, FNR, GRID), losses_at(uncounted(part), FNR, GRID))
        else:
            held += 1
            with pytest.raises(ValueError, match="FNR loss needs a nonempty truth set"):
                losses_at(part, FNR, GRID)
    assert held == 1


def test_dataset_arrays_are_read_only(counted_pool):
    part = split_dataset(counted_pool, SplitSpec(20, 60, 40), seed=3)[0]
    sizes = relative_set_sizes(part, GRID[7])  # the pool keeps its member counts at GRID[7]
    copied = pickle.loads(pickle.dumps(part))
    assert same(losses_at(copied, FNR, GRID), losses_at(part, FNR, GRID))
    assert GRID[7] in copied._pool.members and same(relative_set_sizes(copied, GRID[7]), sizes)
    for data in (counted_pool, part, copied):
        with pytest.raises(ValueError, match="read-only"):
            data.scores[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            data.truth[0, 0] = True
        with pytest.raises(ValueError, match="read-only"):
            data.truth_sizes[0] = 0
        for members in data._pool.members.values():
            with pytest.raises(ValueError, match="read-only"):
                members[0] = 0
        assert same(data.truth_sizes, data.truth.sum(axis=1))


@st.composite
def member_cases(draw):
    """A pool of up to 12 rows over m up to 300 (uint16 member counts past
    255) whose scores sit on the thresholds 1 - k/G or at 0 and 1, counted
    on the grid or not, the rows of a part and of a part of that part, and
    the lambdas read: 0, 1, grid points and points off the grid."""
    G, m, n = draw(st.integers(1, 12)), draw(st.integers(1, 300)), draw(st.integers(0, 12))
    grid = LambdaGrid(G).values
    levels = np.array(sorted({*(1.0 - grid).tolist(), 0.0, 1.0}))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pool = Dataset(rng.choice(levels, size=(n, m)), rng.uniform(size=(n, m)) < rng.uniform())
    counted = draw(st.booleans())
    if counted:
        count_pool(pool, grid)
    part_size = draw(st.integers(0, n))
    part = split_dataset(pool, SplitSpec(0, part_size, 0), seed=draw(st.integers(0, 99)))[1]
    sub = split_dataset(part, SplitSpec(0, draw(st.integers(0, part_size)), 0), seed=1)[1]
    off = st.floats(0.0, 1.0)
    lams = [0.0, 1.0, *draw(st.lists(st.sampled_from(grid.tolist()) | off, max_size=6))]
    return pool, (pool, part, sub), grid, counted, lams


@settings(deadline=None, max_examples=80)
@given(member_cases())
def test_member_counts_match_the_scores(case):
    pool, datasets, grid, counted, lams = case
    for data in datasets:
        for lam in lams:
            want = np.count_nonzero(data.scores >= 1.0 - lam, axis=1) / np.maximum(
                data.truth.sum(axis=1), 1)
            assert same(relative_set_sizes(data, lam), want)
    # kept for every pool row by lam at the grid points read, only on a counted pool
    kept = dict(pool._pool.members)
    assert set(kept) == ({lam for lam in grid.tolist() if lam in lams} if counted else set())
    for lam, members in kept.items():
        want = np.count_nonzero(pool.scores >= 1.0 - lam, axis=1)
        assert same(members, want.astype(np.min_scalar_type(pool.m)))
        assert not members.flags.writeable
    if counted:
        count_pool(pool, LambdaGrid(len(grid)).values)  # another grid: a recount
        assert pool._pool.members.keys() == kept.keys()
        assert all(pool._pool.members[lam] is members for lam, members in kept.items())


def test_set_sizes_kept_on_one_grid_survive_a_recount():
    # a set size depends on lam alone: the column kept at a point of one
    # grid is the same array after a recount on a grid without that point,
    # and equals a fresh count; an off-grid lam and an uncounted pool keep
    # nothing
    pool = generate_dataset(GeneratorParams(m=30), 60, seed=8)
    part = split_dataset(pool, SplitSpec(10, 30, 20), seed=4)[1]
    fresh = uncounted(pool)
    lam = LambdaGrid(20).values[1]  # 0.05: no point of the 50-point grid
    want = datagen.member_counts(fresh, lam)
    assert fresh._pool.members == {} and want.dtype == np.min_scalar_type(pool.m)
    count_pool(pool, LambdaGrid(20).values)
    assert same(datagen.member_counts(part, 0.013), datagen.member_counts(uncounted(part), 0.013))
    assert pool._pool.members == {}
    assert same(datagen.member_counts(part, lam), want[part._rows])
    kept = pool._pool.members[lam]
    assert set(pool._pool.members) == {lam} and same(kept, want)
    count_pool(pool, LambdaGrid(50).values)
    assert lam not in pool._pool.counts[0] and set(pool._pool.members) == {lam}
    assert pool._pool.members[lam] is kept
    assert datagen.member_counts(pool, lam) is kept
    assert same(datagen.member_counts(part, lam), want[part._rows])


def test_parts_selected_on_another_grid_keep_their_rows(monkeypatch):
    # selecting on a part of a pool counted on another grid recounts the
    # whole pool on the new grid; every part must still hold the rows it
    # was split with and read them from the recount
    pool = generate_dataset(GeneratorParams(m=30), 300, seed=8)
    count_pool(pool, LambdaGrid(100).values)
    opt, cal, _ = split_dataset(pool, SplitSpec(60, 150, 90), seed=3)
    sub_opt, sub_cal, _ = split_dataset(cal, SplitSpec(40, 80, 30), seed=4)
    spec, cost = ReliabilitySpec(0.4, 0.2), OceCost.cvar(0.8)

    def selections(cal, opt, grid):
        return (select_oce_rcps(cal, opt, spec, grid, cost, FNR),
                select_oce_crc(cal, opt, spec, grid, cost, MISS),
                select_rcps(cal, spec, grid, FNR))

    pairs = [(cal, opt), (sub_cal, sub_opt)]
    copies = [(uncounted(c), uncounted(o)) for c, o in pairs]
    walks = record_walks(monkeypatch)
    for grid in (LambdaGrid(20), LambdaGrid(100), LambdaGrid(20)):
        for (c, o), (want_c, want_o) in zip(pairs, copies):
            for got, want in zip(selections(c, o, grid), selections(want_c, want_o, grid)):
                assert got.lambda_hat == want.lambda_hat
                assert same(got.trace, want.trace) and same(got.bounds(), want.bounds())
            assert same(c.scores, want_c.scores) and same(c.truth, want_c.truth)
        # a part of a part split after its parent was recounted
        late_opt, late_cal, _ = split_dataset(cal, SplitSpec(30, 90, 30), seed=len(pairs))
        pairs.append((late_cal, late_opt))
        copies.append((uncounted(late_cal), uncounted(late_opt)))
        assert same(pool._pool.counts[0], grid.values)  # recounted on each switch of grid
    assert walks.count(len(pool)) == 3
    monkeypatch.undo()
    assert same(pool._pool.counts[1], datagen._walk_counts(uncounted(pool), LambdaGrid(20).values))


def test_split_gathers_no_rows():
    # a part holds its rows of the pool, so a split allocates O(n) indices,
    # not an (n, m) array: the uint64 draws with their temporaries, the
    # permutation's sort keys, groups and links (about 10 intp a row at
    # its peak), and the order array, which the parts keep. 16 intp a row
    # bound them, a third of one part's scores; the parts keep one intp a row
    rng = np.random.default_rng(1)
    pool = Dataset(rng.uniform(size=(1781, 100)), rng.uniform(size=(1781, 100)) < 0.3)
    count_pool(pool, LambdaGrid(100).values)
    split = SplitSpec(200, 800, 781)
    split_dataset(pool, split, seed=1)
    intp = np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        parts = split_dataset(pool, split, seed=2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(pool) * intp < split.cal_size * pool.m * np.dtype(np.float64).itemsize
    assert kept < len(pool) * intp + 4096  # the order array and three small objects
    assert [len(p) for p in parts] == [200, 800, 781]


# ---------------------------------------------------------------- phi

def test_phi_table():
    assert phi(OceCost.average(), 0.7) == 0.7
    assert phi(OceCost.entropic(3), 0.0) == 0.0
    assert phi(OceCost.entropic(3), 1.0) == pytest.approx((math.e**3 - 1) / 3)
    assert phi(OceCost.cvar(0.9), 0.05) == pytest.approx(0.5)


def test_phi_entropic_overflow_rejected():
    with pytest.raises(OverflowError):
        phi(OceCost.entropic(1000.0), 1.0)


def test_transformed_losses_entropic_overflow_rejected():
    # beta * u = 720 * (1 - 0) lies past exp's range
    with pytest.raises(OverflowError, match="entropic cost overflow"):
        transformed_losses(OceCost.entropic(720.0), 0.0, [0.0, 1.0])


@pytest.mark.parametrize("make, message", [
    (lambda: LossKind("x"), "unknown loss variant"),
    (lambda: OceCost("x"), "unknown cost variant"),
    (lambda: OceCost.parse("cvar"), "cvar requires a parameter"),
    (lambda: OceCost.parse("bogus:1"), "unknown risk spec"),
])
def test_unknown_names_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_cost_parameter_validation():
    with pytest.raises(ValueError):
        OceCost.entropic(0.0)
    with pytest.raises(ValueError):
        OceCost.cvar(1.0)
    with pytest.raises(ValueError):
        OceCost("average", 2.0)


def test_transformed_loss_examples():
    assert transformed_losses(OceCost.average(), 0.3, [0.8])[0] == pytest.approx(0.8)
    assert transformed_losses(OceCost.cvar(0.5), 0.2, [0.1])[0] == pytest.approx(0.2)
    assert transformed_losses(OceCost.entropic(1), 0.0, [0.0])[0] == 0.0


COSTS = [
    OceCost.average(),
    OceCost.entropic(0.5),
    OceCost.entropic(3),
    OceCost.cvar(0.5),
    OceCost.cvar(0.9),
]


@pytest.mark.parametrize("cost", COSTS)
def test_transformed_loss_dominated_by_bound(cost):
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = rng.uniform(0, 1)
        loss = rng.uniform(0, 1)
        assert transformed_losses(cost, t, [loss])[0] <= bound_B(cost, t) + 1e-12


def test_bound_B_examples():
    assert bound_B(OceCost.average(), 0.0) == 1.0
    assert bound_B(OceCost.cvar(0.9), 0.5) == pytest.approx(5.5)
    assert bound_B(OceCost.entropic(3), 1.0) == 1.0


# ---------------------------------------------------------------- empirical

def test_empirical_objective_examples():
    assert empirical_objective([0.1, 0.3], OceCost.average(), 0.77) == pytest.approx(0.2)
    assert empirical_objective([0.1, 0.2, 0.3, 0.4], OceCost.cvar(0.5), 0.2) == pytest.approx(0.35)
    assert empirical_objective([0.3, 0.3], OceCost.entropic(3), 0.3) == pytest.approx(0.3)
    # one t per loss column, as the bounds take it: a second t for a vector
    # was ignored, and a scalar t was broadcast over a block's columns
    for losses, t in (([0.2, 0.5, 0.8], [0.0, 0.5]), (np.full((3, 2), 0.5), 0.2)):
        with pytest.raises(ValueError, match="need one t per loss column"):
            empirical_objective(losses, OceCost.cvar(0.5), t)


def test_empirical_objective_empty_rejected():
    with pytest.raises(ValueError):
        empirical_objective([], OceCost.average(), 0.0)
    # before t is read: an empty block with too few t, or a t out of range
    for losses in (np.empty((0, 3)), np.empty((5, 0))):
        with pytest.raises(ValueError, match="losses must be nonempty"):
            empirical_objective(losses, OceCost.cvar(0.5), np.full(2, 1.5))
    with pytest.raises(ValueError):
        empirical_oce([], OceCost.average())


def test_empirical_oce_examples():
    value, t_star = empirical_oce([0.1, 0.2, 0.3, 0.4], OceCost.cvar(0.5))
    # sort-and-average tail oracle: mean of the top 2 losses
    assert value == pytest.approx(np.mean([0.3, 0.4]))
    assert t_star == pytest.approx(0.2)
    value, t_star = empirical_oce([0.0, 1.0], OceCost.entropic(1))
    assert value == pytest.approx(math.log((1 + math.e) / 2))
    assert value == t_star
    value, t_star = empirical_oce([0.2, 0.4, 0.6], OceCost.average())
    assert value == pytest.approx(0.4)
    assert t_star == 0.0


ORACLE_COSTS = [
    OceCost.average(),
    *(OceCost.cvar(b) for b in (0.0, 0.5, 0.9)),
    *(OceCost.entropic(b) for b in (3.0, 1e-5, 1e-17, 5e-324)),
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 7, 33, 800]),
    st.integers(1, 40),
    st.sampled_from(ORACLE_COSTS),
    st.sampled_from(["uniform", "tied", "constant"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_empirical_oce_matches_the_closed_form_oracle(n, k, cost, values, column_major, seed):
    rng = np.random.default_rng(seed)
    if values == "uniform":
        block = rng.uniform(size=(n, k))
    elif values == "tied":
        block = rng.integers(0, 4, size=(n, k)) / 3.0  # FNR-like ratios with many ties
    else:
        block = np.full((n, k), rng.choice([0.0, 1.0, rng.uniform()]))
    if column_major:  # contiguous columns, as `losses_at` lays them out
        block = np.asfortranarray(block)
    for j in range(k):
        got = empirical_oce(block[:, j], cost)
        want = closed_form_oce(block[:, j], cost)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("cost", ORACLE_COSTS, ids=lambda c: f"{c.variant}:{c.beta!r}")
def test_empirical_oce_matches_the_closed_form_oracle_on_many_columns(cost):
    # a differently rounded value step (say, times 1 / (1 - beta) for CVaR)
    # changes the last bit for only about 2% of uniform columns
    block = np.random.default_rng(71).uniform(size=(50, 3000))
    got = np.array([empirical_oce(column, cost) for column in block.T])
    want = np.array([closed_form_oce(column, cost) for column in block.T])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [5e-324, 1e-300, 1e-17, 1e-9, 1e-6, 9.9e-5, 1e-4, 1e-2, 1.0])
def test_entropic_oce_precise_for_small_beta(beta):
    # [0, 0, 0, 1]: log((3 + e^beta) / 4) / beta, which is the mean 0.25 up
    # to beta * var/2 with var = 3/16
    value, t_star = empirical_oce([0.0, 0.0, 0.0, 1.0], OceCost.entropic(beta))
    want = math.log1p(math.expm1(beta) / 4) / beta if beta >= 1e-9 else 0.25
    assert value == t_star
    assert abs(value - want) < 1e-9


@pytest.mark.parametrize("beta", [5e-324, 1e-310])
def test_entropic_cost_at_subnormal_beta_is_the_small_beta_limit(beta):
    # beta * u underflows here; the beta -> 0 limit of phi(u) is u
    cost = OceCost.entropic(beta)
    for u in (-1.0, -0.25, 0.3, 1.0):
        assert abs(phi(cost, u) - u) < 1e-12
    losses = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.25, 1.0):
        assert np.max(np.abs(transformed_losses(cost, t, losses) - losses)) < 1e-12


def brute_force_oce(losses, cost, grid=20001):
    ts = np.linspace(0.0, 1.0, grid)
    return min(empirical_objective(losses, cost, t) for t in ts)


@pytest.mark.parametrize("cost", COSTS)
def test_empirical_oce_matches_grid_minimum(cost):
    rng = np.random.default_rng(5)
    for _ in range(5):
        losses = rng.uniform(size=40)
        value, t_star = empirical_oce(losses, cost)
        brute = brute_force_oce(losses, cost, grid=4001)
        assert value == pytest.approx(brute, abs=2e-4)
        assert value <= empirical_objective(losses, cost, t_star) + 1e-12


@pytest.mark.parametrize("cost", COSTS)
def test_oce_never_exceeds_objective(cost):
    rng = np.random.default_rng(7)
    for _ in range(50):
        losses = rng.uniform(size=rng.integers(1, 60))
        value, _ = empirical_oce(losses, cost)
        for t in rng.uniform(0, 1, size=10):
            assert value <= empirical_objective(losses, cost, t) + 1e-12
        assert losses.min() - 1e-12 <= value <= losses.max() + 1e-12


def test_identity_cost_degeneracy():
    rng = np.random.default_rng(9)
    losses = rng.uniform(size=30)
    base = empirical_objective(losses, OceCost.average(), 0.0)
    for t in rng.uniform(0, 1, size=20):
        assert abs(empirical_objective(losses, OceCost.average(), t) - base) < 1e-12
    assert empirical_oce(losses, OceCost.average())[0] == np.mean(losses)


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
def test_oce_of_constant(cost, c):
    losses = np.full(25, c)
    value, _ = empirical_oce(losses, cost)
    assert value == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("cost", COSTS)
def test_objective_convex_in_t(cost):
    rng = np.random.default_rng(13)
    for _ in range(100):
        losses = rng.uniform(size=rng.integers(1, 40))
        t1, t2 = sorted(rng.uniform(0, 1, size=2))
        mid = empirical_objective(losses, cost, (t1 + t2) / 2)
        avg = (
            empirical_objective(losses, cost, t1)
            + empirical_objective(losses, cost, t2)
        ) / 2
        assert mid <= avg + 1e-9


def test_invalid_examples_rejected():
    ok = np.array([[0.2, 0.5], [0.9, 0.1]])
    mask = np.array([[True, False], [False, True]])
    Dataset(ok, mask)
    for scores, truth in (
        ([[0.2, 0.5], [0.9]], mask),  # ragged rows
        (ok, mask[:, :1]),  # shapes differ
        (ok[0], mask[0]),  # 1-d
        (np.empty((2, 0)), np.empty((2, 0), dtype=bool)),  # m = 0
        (ok, mask.astype(int)),  # truth not a bool mask
        ([[0.2, math.nan]], [[True, False]]),  # NaN compares false both ways
        ([[0.2, 1.2]], [[True, False]]),
        ([[-0.1, 0.5]], [[True, False]]),
    ):
        with pytest.raises(ValueError):
            Dataset(scores, truth)
