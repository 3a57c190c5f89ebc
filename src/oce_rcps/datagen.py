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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .rng import SplitMix64, beta_inverse_cdf, mix64
from .risk import ScoredExample

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
        if self.difficulty_a <= 0 or self.difficulty_b <= 0 or self.sharpness <= 0:
            raise ValueError("Beta shapes and sharpness must be positive")


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


@dataclass
class Dataset:
    examples: list
    m: int
    seed: int | None = None
    params: dict | None = None

    def __len__(self) -> int:
        return len(self.examples)


def _generate_example(params: GeneratorParams, sub_seed: int) -> ScoredExample:
    stream = SplitMix64(sub_seed)
    d = float(beta_inverse_cdf(stream.next_float(), params.difficulty_a, params.difficulty_b))
    for _ in range(_MAX_MEMBERSHIP_ATTEMPTS):
        positive = np.array([stream.next_float() < params.rho for _ in range(params.m)])
        if positive.any():
            break
    else:
        raise RuntimeError("membership resampling did not terminate")
    u = stream.next_floats(params.m)
    k = params.sharpness
    a = np.where(positive, 1.0 + k * (1.0 - d), 1.5)
    b = np.where(positive, 1.0 + k * d, 1.0 + k * (1.0 - d))
    scores = np.clip(beta_inverse_cdf(u, a, b), 0.0, 1.0)
    return ScoredExample(scores, frozenset(np.flatnonzero(positive).tolist()))


def generate_dataset(params: GeneratorParams, count: int, seed: int) -> Dataset:
    if count < 1:
        raise ValueError("count must be >= 1")
    examples = [_generate_example(params, mix64(seed, i)) for i in range(count)]
    return Dataset(examples, params.m, seed=seed, params=asdict(params))


def split_dataset(data: Dataset, split: SplitSpec, seed: int):
    """Seeded uniform permutation assigning disjoint index ranges."""
    n = len(data)
    if split.total > n:
        raise ValueError(f"split sizes total {split.total} exceed dataset size {n}")
    indices = list(range(n))
    SplitMix64(seed).shuffle(indices)
    a, b, c = split.opt_size, split.opt_size + split.cal_size, split.total
    pick = lambda idx: [data.examples[i] for i in idx]
    return pick(indices[:a]), pick(indices[a:b]), pick(indices[b:c])


def _format_score(s: float) -> str:
    return format(s, ".9g")


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
    for ex in data.examples:
        scores = ",".join(_format_score(s) for s in ex.scores)
        truth = ",".join(str(i) for i in sorted(ex.truth))
        fp.write('{"scores":[%s],"truth":[%s]}\n' % (scores, truth))


def read_dataset(fp) -> Dataset:
    header_line = fp.readline()
    if not header_line:
        raise DatasetParseError(1, "empty file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as e:
        raise DatasetParseError(1, f"bad header: {e}") from e
    if header.get("format") != "oce-rcps-dataset" or header.get("version") != 1:
        raise DatasetParseError(1, "not an oce-rcps-dataset version 1 file")
    m = header.get("m")
    if not isinstance(m, int) or m < 1:
        raise DatasetParseError(1, "header m must be a positive integer")
    examples = []
    for line_no, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetParseError(line_no, f"bad row: {e}") from e
        scores = row.get("scores")
        truth = row.get("truth")
        if not isinstance(scores, list) or not isinstance(truth, list):
            raise DatasetParseError(line_no, "row needs scores and truth arrays")
        if len(scores) != m:
            raise DatasetParseError(line_no, f"expected {m} scores, got {len(scores)}")
        arr = np.asarray(scores, dtype=np.float64)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
            raise DatasetParseError(line_no, "score outside [0, 1]")
        # bool is a subclass of int, but true is not an index
        if any(type(i) is not int or i < 0 or i >= m for i in truth):
            raise DatasetParseError(line_no, "truth index out of range")
        if len(set(truth)) != len(truth):
            raise DatasetParseError(line_no, "duplicate truth index")
        examples.append(ScoredExample(arr, frozenset(truth)))
    count = header.get("count")
    if isinstance(count, int) and count != len(examples):
        raise DatasetParseError(1, f"header count {count} != {len(examples)} rows")
    return Dataset(examples, m, seed=header.get("seed"), params=header.get("params"))


def write_dataset_path(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_dataset(data, fp)


def read_dataset_path(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fp:
        return read_dataset(fp)
