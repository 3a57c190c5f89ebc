"""Synthetic segmentation-style data, splitting, and JSONL interchange.

Each generated example mimics a per-pixel score map: a difficulty level d
drawn from a Beta prior tilts the positive-element scores down and the
negative-element scores up, so that the loss at a fixed threshold has a
heavy right tail across examples and tail-sensitive risk measures differ
meaningfully from the mean.

All randomness comes from the splitmix64 streams in :mod:`oce_rcps.rng`;
example ``i`` uses the substream seeded by ``mix64(seed, i)``, with a fixed
draw order (difficulty, membership attempts, then one uniform per element
for scores), so generation is reproducible and parallelizable per example.

A split part is a row view: it holds its row indices into the pool it was
split from, which keeps the checked arrays, each row's |truth|, the loss
counts `count_pool` takes and the member counts `member_counts` takes on
that grid, so a Monte Carlo trial neither copies nor re-checks the rows
of its parts, nor reads their scores. Both losses are defined here, in
`loss_reader`, from those counts.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .rng import beta_inverse_cdf, mix64, permutation, uniforms

_MAX_MEMBERSHIP_ATTEMPTS = 10_000


class DatasetParseError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class GeneratorParams:
    m: int = 100
    rho: float = 0.3
    difficulty_a: float = 2.0
    difficulty_b: float = 2.0
    sharpness: float = 8.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not all(0.0 < v < np.inf for v in (self.difficulty_a, self.difficulty_b, self.sharpness)):
            raise ValueError("Beta shapes and sharpness must be positive and finite")


@dataclass(frozen=True)
class SplitSpec:
    opt_size: int
    cal_size: int
    test_size: int

    def __post_init__(self):
        if min(self.opt_size, self.cal_size, self.test_size) < 0:
            raise ValueError("split sizes must be >= 0")

    @property
    def total(self) -> int:
        return self.opt_size + self.cal_size + self.test_size


_Row = namedtuple("_Row", "scores truth")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Pool:
    """The validated rows that datasets view: the (n, m) scores and truth
    mask, each row's |truth|, the loss counts kept for the rows on one
    grid, as (grid, table), or None, and the member counts of every row at
    the points of that grid that `member_counts` was asked for, by grid
    index. Every array is read-only, so counts kept for the rows cannot go
    stale."""

    def __init__(self, scores: np.ndarray, truth: np.ndarray):
        self.scores, self.truth = _frozen(scores), _frozen(truth)
        self.sizes = _frozen(truth.sum(axis=1))
        self.counts, self.members = None, {}

    def __setstate__(self, state):
        # unpickling (as a spawned worker does with the pool) makes arrays writable
        self.__dict__.update(state)
        for arr in (*state.values(), *(self.counts or ()), *self.members.values()):
            if isinstance(arr, np.ndarray):
                _frozen(arr)


class Dataset:
    """n examples over m elements: scores in [0, 1] as an (n, m) float64
    array and the ground-truth positive sets as an (n, m) bool mask, both
    read-only.

    A dataset is a set of rows of a pool. `Dataset(scores, truth)` checks
    the arrays and makes them a pool of its own. It takes a float64 score
    array and a bool mask without a copy and marks the caller's arrays
    read-only, which keeps the counts kept for their rows from going
    stale; the caller must not make them writable again. Other inputs,
    such as a list or a float32 array, are converted, and the caller's
    object stays as it was. A part `split_dataset` takes holds only its
    row indices into its parent's pool, so it is neither copied nor
    checked again, and gathers `scores` or `truth`, as new read-only
    arrays, only when they are read."""

    def __init__(self, scores, truth, seed: int | None = None, params: dict | None = None):
        scores = np.asarray(scores, dtype=np.float64)
        truth = np.asarray(truth)
        if scores.ndim != 2 or scores.shape[1] < 1:
            raise ValueError("scores must be an (n, m) array with m >= 1")
        if truth.shape != scores.shape:
            raise ValueError("truth must have the shape of scores")
        if truth.dtype != bool:
            raise ValueError("truth must be a bool mask")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails too
            raise ValueError("scores must lie in [0, 1]")
        self.seed, self.params = seed, params
        # the pool this dataset's rows are in, and which rows (None: all)
        self._pool, self._rows = _Pool(scores, truth), None

    @classmethod
    def _view(cls, pool: _Pool, rows: np.ndarray) -> "Dataset":
        part = cls.__new__(cls)
        part.seed = part.params = None
        part._pool, part._rows = pool, rows
        return part

    def _take(self, arr: np.ndarray) -> np.ndarray:
        """This dataset's rows of a per-row array of its pool."""
        return arr if self._rows is None else _frozen(arr[self._rows])

    @property
    def scores(self) -> np.ndarray:
        return self._take(self._pool.scores)

    @property
    def truth(self) -> np.ndarray:
        return self._take(self._pool.truth)

    @property
    def truth_sizes(self) -> np.ndarray:
        """|truth| of each row, as the pool keeps it."""
        return self._take(self._pool.sizes)

    @property
    def m(self) -> int:
        return self._pool.scores.shape[1]

    def __len__(self) -> int:
        return len(self._pool.scores) if self._rows is None else self._rows.size

    @property
    def _counts(self) -> tuple | None:
        """The loss counts kept with the pool, (grid, table), or None."""
        return self._pool.counts

    @property
    def examples(self) -> list:
        """Rows as (scores, truth indices) pairs, for reading; the benchmark's
        output checks (perfbench/checks.py) rebuild their arrays from them."""
        return [_Row(s, np.flatnonzero(t)) for s, t in zip(self.scores, self.truth)]


def _generate_example(params: GeneratorParams, sub_seed: int):
    m = params.m  # draw 1: difficulty; membership attempt k: draws 2 + k*m ..; then scores
    d = float(beta_inverse_cdf(uniforms(sub_seed, 0, 1)[0], params.difficulty_a, params.difficulty_b))
    for attempt in range(_MAX_MEMBERSHIP_ATTEMPTS):
        positive = uniforms(sub_seed, 1 + attempt * m, m) < params.rho
        if positive.any():
            break
    else:
        raise ValueError(
            f"no positive label in {_MAX_MEMBERSHIP_ATTEMPTS} membership draws "
            f"for the generator parameters {params}"
        )
    u = uniforms(sub_seed, 1 + (attempt + 1) * m, m)
    k = params.sharpness
    a = np.where(positive, 1.0 + k * (1.0 - d), 1.5)
    b = np.where(positive, 1.0 + k * d, 1.0 + k * (1.0 - d))
    return np.clip(beta_inverse_cdf(u, a, b), 0.0, 1.0), positive


def generate_dataset(params: GeneratorParams, count: int, seed: int) -> Dataset:
    if count < 1:
        raise ValueError("count must be >= 1")
    scores = np.empty((count, params.m))
    truth = np.empty((count, params.m), dtype=bool)
    for i in range(count):
        scores[i], truth[i] = _generate_example(params, mix64(seed, i))
    if np.isnan(scores).any():  # betaincinv gives NaN for shapes it cannot invert
        raise ValueError(f"no Beta variate for the generator parameters {params}")
    return Dataset(scores, truth, seed=seed, params=asdict(params))


def split_dataset(data: Dataset, split: SplitSpec, seed: int):
    """Seeded uniform permutation assigning disjoint index ranges; returns
    the (opt, cal, test) rows as three Datasets that view `data`'s pool: a
    part of a part composes its rows, and the parts of a counted dataset
    read its loss counts."""
    n = len(data)
    if split.total > n:
        raise ValueError(f"split sizes total {split.total} exceed dataset size {n}")
    order = permutation(n, seed)
    rows = order if data._rows is None else data._rows[order]
    a, b, c = split.opt_size, split.opt_size + split.cal_size, split.total
    return tuple(Dataset._view(data._pool, rows[i:j]) for i, j in ((0, a), (a, b), (b, c)))


def _walk_counts(dataset: Dataset, lams) -> np.ndarray:
    """How many truth scores of each example lie below the threshold 1 - lam,
    as a (len(dataset), len(lams)) matrix in `np.min_scalar_type(m)`: the
    count behind `loss_reader` and `count_pool`. It sorts every truth score
    once, then adds each threshold's newly passed scores per example with
    `np.bincount`, visiting the thresholds in increasing order."""
    thresholds = 1.0 - lams
    n = len(dataset)
    rows, cols = np.nonzero(dataset.truth)
    scores = dataset.scores[rows, cols]
    order = np.argsort(scores)
    rows = rows[order]
    columns = np.argsort(thresholds)
    stops = np.searchsorted(scores[order], thresholds[columns], side="left")
    out = np.empty((thresholds.size, n), np.min_scalar_type(dataset.m)).T
    missed = np.zeros(n, dtype=np.intp)
    start = 0
    for j, stop in zip(columns, stops):
        missed += np.bincount(rows[start:stop], minlength=n)
        out[:, j] = missed
        start = stop
    return out


def loss_reader(dataset: Dataset, kind, lams):
    """The losses of the dataset at `lams`, read as rows, one per lam:
    `read(cols, rows)` gives the C-contiguous (len(cols), len(rows)) float64
    losses of the columns `cols` and the rows `rows` (a slice) of the
    (len(dataset), len(lams)) loss matrix, both all by default. Both losses
    come from one count per example and lam, the truth scores below
    1 - lam: FNR (`kind.variant` "fnr") is the count over |truth|,
    miscoverage is min(count, 1).

    A dataset counted by `count_pool`, or split from one, finds where the
    lams lie in the counted grid once, and each read gathers only its rows
    of that column slice of the kept counts; lams that are not a run of the
    counted grid are walked from the dataset's own truth scores, once. Only
    the cells read are converted. The FNR check covers every row, before
    any is read, and a count-derived loss lies in [0, 1] by construction
    (count <= |truth|).
    """
    sizes = dataset.truth_sizes
    fnr = kind.variant == "fnr"
    if fnr and not sizes.all():
        raise ValueError("FNR loss needs a nonempty truth set")
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    table = None
    if dataset._counts is not None:
        grid, kept = dataset._counts
        i = grid.searchsorted(lams[0]) if lams.size else 0
        if np.array_equal(grid[i:i + lams.size], lams):
            table, index = kept[:, i:i + lams.size], dataset._rows
    if table is None:
        if np.isnan(lams).any():
            raise ValueError("lam must not be NaN")
        table, index = _walk_counts(dataset, lams), None

    def read(cols=slice(None), rows=slice(None)):
        counts = table[rows] if index is None else table[index[rows]]
        out = np.ascontiguousarray(counts[:, cols].T, dtype=np.float64)
        if fnr:
            out /= sizes[rows]
        else:
            np.minimum(out, 1.0, out=out)
        return out

    return read


def member_counts(dataset: Dataset, lam: float) -> np.ndarray:
    """How many scores of each example are at least 1 - lam, the size of
    its prediction set at lam.

    When the dataset's pool is counted and lam is a point of its grid, the
    pool counts every one of its rows at lam once, the first time any
    dataset of it asks, and keeps that column in `np.min_scalar_type(m)`;
    each later read gathers only the dataset's rows of it. Any other lam,
    or a dataset of an uncounted pool, counts the dataset's own scores and
    keeps nothing."""
    pool = dataset._pool
    if pool.counts is not None:
        grid = pool.counts[0]
        k = int(grid.searchsorted(lam))
        if k < grid.size and grid[k] == lam:
            if k not in pool.members:
                members = np.count_nonzero(pool.scores >= 1.0 - lam, axis=1)
                pool.members[k] = _frozen(members.astype(np.min_scalar_type(dataset.m)))
            return dataset._take(pool.members[k])
    if np.isnan(lam):
        raise ValueError("lam must not be NaN")
    return np.count_nonzero(dataset.scores >= 1.0 - lam, axis=1)


def count_pool(dataset: Dataset, lams) -> None:
    """Count the losses of every row of the dataset's pool on the strictly
    increasing grid `lams` (as `LambdaGrid.values`; any other raises
    ValueError) once and keep the counts with the pool, where every
    dataset of it reads its rows of them instead of walking. The counts
    hold for both loss kinds; a pool already counted on this grid is left
    as it is, and one counted on another grid is recounted. The dataset's
    own pool and rows stay as they were made."""
    lams = np.asarray(lams, dtype=np.float64)
    if dataset._counts is not None and np.array_equal(dataset._counts[0], lams):
        return
    if lams.ndim != 1 or np.isnan(lams).any() or not np.all(lams[1:] > lams[:-1]):
        raise ValueError("a counted grid must be strictly increasing")
    pool = dataset._pool
    table = np.ascontiguousarray(_walk_counts(Dataset._view(pool, None), lams))  # rows contiguous
    pool.counts = (_frozen(lams.copy()), _frozen(table))
    pool.members = {}  # kept at points of the grid just replaced


def write_dataset(data: Dataset, fp) -> None:
    header = {
        "format": "oce-rcps-dataset",
        "version": 1,
        "m": data.m,
        "count": len(data),
        "seed": data.seed,
        "params": data.params,
    }
    fp.write(json.dumps(header) + "\n")
    for row_scores, row_truth in zip(data.scores, data.truth):
        scores = ",".join(format(s, ".9g") for s in row_scores)
        truth = ",".join(str(i) for i in np.flatnonzero(row_truth))
        fp.write('{"scores":[%s],"truth":[%s]}\n' % (scores, truth))


def _arrays(rows: list, m: int):
    """Each row check, stated once over all rows: the (n, m) scores and
    truth mask, or ValueError with the message of the check that failed.
    Every check is a per-row check, so the rows fail exactly when one of
    them does, and on a single row the message is that row's."""
    n = len(rows)
    if not set(map(type, rows)) <= {dict}:
        rows = [row if isinstance(row, dict) else {} for row in rows]
    scores = [row.get("scores") for row in rows]
    truth = [row.get("truth") for row in rows]
    if not set(map(type, scores)) | set(map(type, truth)) <= {list}:
        raise ValueError("row needs scores and truth arrays")
    lengths = set(map(len, scores)) - {m}
    if lengths:
        raise ValueError(f"expected {m} scores, got {lengths.pop()}")
    # bool is a subclass of int, but true is not a score; nor is "0.5"
    if not set(map(type, chain.from_iterable(scores))) <= {int, float}:
        raise ValueError("scores must be numbers")
    try:
        arr = np.array(scores, dtype=np.float64).reshape(n, m)
    except OverflowError:  # an integer beyond the double range
        raise ValueError("score outside [0, 1]") from None
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
        raise ValueError("score outside [0, 1]")
    # bool is a subclass of int, but true is not an index
    flat = list(chain.from_iterable(truth))
    if flat and not (set(map(type, flat)) <= {int} and min(flat) >= 0 and max(flat) < m):
        raise ValueError("truth index out of range")
    sizes = np.fromiter(map(len, truth), dtype=np.intp, count=n)
    mask = np.zeros((n, m), dtype=bool)
    mask[np.repeat(np.arange(n), sizes), np.array(flat, dtype=np.intp)] = True
    if not np.array_equal(mask.sum(axis=1), sizes):  # a duplicate index sets one cell twice
        raise ValueError("duplicate truth index")
    return arr, mask


def _checked(line_nos: list, rows: list, m: int):
    """The rows' (n, m) scores and truth mask; when the rows fail, the
    checks run again one row at a time and the first bad line's
    DatasetParseError carries that row's message."""
    try:
        return _arrays(rows, m)
    except ValueError:
        for line_no, row in zip(line_nos, rows):
            try:
                _arrays([row], m)
            except ValueError as e:
                raise DatasetParseError(line_no, str(e)) from None
        raise


def read_dataset(fp) -> Dataset:
    """Parse one JSON value per line, then check all rows at once; when a
    check fails, the same checks on one row at a time name the first bad
    line."""
    header_line = fp.readline()
    if not header_line:
        raise DatasetParseError(1, "empty file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as e:
        raise DatasetParseError(1, f"bad header: {e}") from e
    # true and 1.0 equal 1, but neither is the version
    if (not isinstance(header, dict) or header.get("format") != "oce-rcps-dataset"
            or type(header.get("version")) is not int or header["version"] != 1):
        raise DatasetParseError(1, "not an oce-rcps-dataset version 1 file")
    m = header.get("m")
    if type(m) is not int or m < 1:  # bool is a subclass of int, but true is not a size
        raise DatasetParseError(1, "header m must be a positive integer")
    line_nos, rows = [], []
    for line_no, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as e:
            _checked(line_nos, rows, m)  # a bad row above this line is reported first
            raise DatasetParseError(line_no, f"bad row: {e}") from e
        line_nos.append(line_no)
    arrays = _checked(line_nos, rows, m)
    n = len(rows)
    count = header.get("count")
    if count is not None and (type(count) is not int or count != n):
        raise DatasetParseError(1, f"header count {count} != {n} rows")
    return Dataset(*arrays, seed=header.get("seed"), params=header.get("params"))


def write_dataset_path(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_dataset(data, fp)


def read_dataset_path(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fp:
        return read_dataset(fp)
