import io
import math

import numpy as np
import pytest

from oce_rcps.datagen import (
    Dataset,
    DatasetParseError,
    GeneratorParams,
    SplitSpec,
    generate_dataset,
    read_dataset,
    split_dataset,
    write_dataset,
)
from oce_rcps.rng import SplitMix64, mix64
from oce_rcps.risk import ScoredExample


def serialize(data: Dataset) -> str:
    buf = io.StringIO()
    write_dataset(data, buf)
    return buf.getvalue()


def test_generation_deterministic():
    params = GeneratorParams(m=20)
    a = generate_dataset(params, 50, seed=123)
    b = generate_dataset(params, 50, seed=123)
    assert serialize(a) == serialize(b)


def test_generation_seed_sensitive():
    params = GeneratorParams(m=20)
    a = generate_dataset(params, 10, seed=1)
    b = generate_dataset(params, 10, seed=2)
    assert serialize(a) != serialize(b)


def test_truth_sizes_and_score_range():
    data = generate_dataset(GeneratorParams(), 1000, seed=99)
    sizes = [len(ex.truth) for ex in data.examples]
    assert min(sizes) >= 1
    # binomial mean 30 with sigma ~ sqrt(0.3*0.7*100*1000)/1000 ~ 0.145
    assert 29.0 <= float(np.mean(sizes)) <= 31.0
    for ex in data.examples[:50]:
        assert np.all(ex.scores >= 0.0) and np.all(ex.scores <= 1.0)


def test_easy_examples_separate_scores():
    # difficulty concentrated near 0: positives should outscore negatives
    params = GeneratorParams(difficulty_a=0.2, difficulty_b=50.0)
    data = generate_dataset(params, 200, seed=5)
    pos, neg = [], []
    for ex in data.examples:
        mask = np.zeros(ex.m, dtype=bool)
        mask[list(ex.truth)] = True
        pos.extend(ex.scores[mask])
        neg.extend(ex.scores[~mask])
    assert np.mean(pos) > np.mean(neg)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GeneratorParams(m=0)
    with pytest.raises(ValueError):
        GeneratorParams(rho=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(sharpness=-1)
    with pytest.raises(ValueError):
        generate_dataset(GeneratorParams(), 0, seed=1)


# ---------------------------------------------------------------- splitting

def test_split_disjoint_exact_cardinalities():
    data = generate_dataset(GeneratorParams(m=5), 1781, seed=3)
    opt, cal, test = split_dataset(data, SplitSpec(200, 800, 781), seed=7)
    assert (len(opt), len(cal), len(test)) == (200, 800, 781)
    ids = [id(e) for e in opt + cal + test]
    assert len(set(ids)) == len(ids) == 1781


def test_split_seed_changes_partition():
    data = generate_dataset(GeneratorParams(m=5), 60, seed=3)
    a = split_dataset(data, SplitSpec(10, 30, 20), seed=1)
    b = split_dataset(data, SplitSpec(10, 30, 20), seed=2)
    assert [len(x) for x in a] == [len(x) for x in b]
    assert [id(e) for e in a[1]] != [id(e) for e in b[1]]


def test_split_degenerate_all_cal():
    data = generate_dataset(GeneratorParams(m=5), 40, seed=3)
    opt, cal, test = split_dataset(data, SplitSpec(0, 40, 0), seed=1)
    assert not opt and not test and len(cal) == 40


def test_split_overflow_rejected():
    data = generate_dataset(GeneratorParams(m=5), 10, seed=3)
    with pytest.raises(ValueError):
        split_dataset(data, SplitSpec(5, 5, 5), seed=1)


def test_split_deterministic():
    data = generate_dataset(GeneratorParams(m=5), 60, seed=3)
    a = split_dataset(data, SplitSpec(10, 30, 20), seed=9)
    b = split_dataset(data, SplitSpec(10, 30, 20), seed=9)
    assert all([id(x) for x in pa] == [id(y) for y in pb] for pa, pb in zip(a, b))


# ---------------------------------------------------------------- JSONL io

def test_roundtrip_equality():
    data = generate_dataset(GeneratorParams(m=12), 30, seed=11)
    text = serialize(data)
    back = read_dataset(io.StringIO(text))
    assert serialize(back) == text
    assert back.m == data.m and len(back) == len(data)
    assert all(a.truth == b.truth for a, b in zip(data.examples, back.examples))


def test_read_rejects_bad_score():
    # the JSON NaN literal parses, so the range check must fail it too
    for score in ("1.2", "NaN"):
        text = (
            '{"format":"oce-rcps-dataset","version":1,"m":2,"count":1,"seed":null,"params":null}\n'
            '{"scores":[0.5,%s],"truth":[0]}\n' % score
        )
        with pytest.raises(DatasetParseError, match="line 2"):
            read_dataset(io.StringIO(text))


@pytest.mark.parametrize("truth", ["[true]", "[2,2]"])
def test_read_rejects_bool_or_duplicate_truth(truth):
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.2,0.5,0.9],"truth":%s}\n' % truth
    )
    with pytest.raises(DatasetParseError, match="line 2"):
        read_dataset(io.StringIO(text))


def test_read_rejects_truth_out_of_range():
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":2,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.5,0.2],"truth":[2]}\n'
    )
    with pytest.raises(DatasetParseError, match="line 2"):
        read_dataset(io.StringIO(text))


def test_read_rejects_m_mismatch():
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.5,0.2],"truth":[0]}\n'
    )
    with pytest.raises(DatasetParseError, match="line 2"):
        read_dataset(io.StringIO(text))


def test_read_rejects_bad_header():
    with pytest.raises(DatasetParseError, match="line 1"):
        read_dataset(io.StringIO('{"format":"something-else"}\n'))
    with pytest.raises(DatasetParseError, match="line 1"):
        read_dataset(io.StringIO(""))


def test_read_rejects_count_mismatch():
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":1,"count":2,"seed":null,"params":null}\n'
        '{"scores":[0.5],"truth":[0]}\n'
    )
    with pytest.raises(DatasetParseError):
        read_dataset(io.StringIO(text))


# ---------------------------------------------------------------- rng

def test_mix64_spreads_indices():
    seeds = {mix64(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_splitmix_floats_in_unit_interval():
    stream = SplitMix64(7)
    values = stream.next_floats(1000)
    assert np.all(values >= 0.0) and np.all(values < 1.0)
    # crude uniformity check
    assert abs(values.mean() - 0.5) < 0.05


def test_shuffle_is_permutation():
    stream = SplitMix64(7)
    items = list(range(100))
    stream.shuffle(items)
    assert sorted(items) == list(range(100))
    assert items != list(range(100))
