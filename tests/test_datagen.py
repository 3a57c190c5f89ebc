import ast
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oce_rcps import datagen, rng
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
from oce_rcps.rng import draws, mix64, permutation, uniforms
from oracles import SplitMix64, generate_example

# below 0 and at or above 2^63 included: seeds are taken mod 2^64
SEEDS = st.integers(-(2**64), 2**65)


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
    sizes = data.truth.sum(axis=1)
    assert sizes.min() >= 1
    # binomial mean 30 with sigma ~ sqrt(0.3*0.7*100*1000)/1000 ~ 0.145
    assert 29.0 <= float(np.mean(sizes)) <= 31.0
    assert np.all(data.scores >= 0.0) and np.all(data.scores <= 1.0)


def test_dataset_shares_and_freezes_float64_scores_and_a_bool_mask():
    # a float64 score array and a bool mask are the pool's own arrays, made
    # read-only, so counts kept for their rows cannot go stale
    scores, truth = np.full((2, 3), 0.5), np.eye(2, 3, dtype=bool)
    data = Dataset(scores, truth)
    for given, held in ((scores, data.scores), (truth, data.truth)):
        assert np.shares_memory(given, held) and not given.flags.writeable
    # any other input is converted, and the caller's object stays writable
    scores32, truth_list = np.full((2, 3), 0.5, dtype=np.float32), truth.tolist()
    data = Dataset(scores32, truth_list)
    assert not data.scores.flags.writeable and not data.truth.flags.writeable
    assert scores32.flags.writeable and not np.shares_memory(scores32, data.scores)
    scores32[0, 0], truth_list[0][0] = 1.0, False
    assert data.scores[0, 0] == 0.5 and data.truth[0, 0]


def test_easy_examples_separate_scores():
    # difficulty concentrated near 0: positives should outscore negatives
    params = GeneratorParams(difficulty_a=0.2, difficulty_b=50.0)
    data = generate_dataset(params, 200, seed=5)
    assert np.mean(data.scores[data.truth]) > np.mean(data.scores[~data.truth])


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GeneratorParams(m=0)
    with pytest.raises(ValueError):
        GeneratorParams(rho=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(sharpness=-1)
    for shape in (math.nan, math.inf):  # NaN or infinite shapes give NaN scores
        with pytest.raises(ValueError):
            GeneratorParams(difficulty_a=shape)
    with pytest.raises(ValueError):
        generate_dataset(GeneratorParams(), 0, seed=1)


@pytest.mark.parametrize("field", ["sharpness", "difficulty_a", "difficulty_b"])
def test_shapes_without_a_beta_variate_rejected(field):
    # finite shapes that pass validation, but betaincinv returns NaN for them
    params = GeneratorParams(**{field: 1e300})
    with pytest.raises(ValueError, match=f"no Beta variate .*{field}=1e\\+300"):
        generate_dataset(params, 5, seed=1)


def test_rho_without_a_positive_draw_rejected():
    # every membership attempt of an example draws no positive label
    params = GeneratorParams(m=5, rho=1e-300)
    with pytest.raises(ValueError, match="no positive label .*rho=1e-300"):
        generate_dataset(params, 2, seed=1)


# ---------------------------------------------------------------- splitting

def pool_rows(data: Dataset, part: Dataset) -> list:
    """The pool index of each row of a split part (generated rows are distinct)."""
    index = {row.tobytes(): i for i, row in enumerate(data.scores)}
    rows = [index[row.tobytes()] for row in part.scores]
    assert np.array_equal(part.truth, data.truth[rows])
    return rows


def test_split_disjoint_exact_cardinalities():
    data = generate_dataset(GeneratorParams(m=5), 1781, seed=3)
    opt, cal, test = split_dataset(data, SplitSpec(200, 800, 781), seed=7)
    assert (len(opt), len(cal), len(test)) == (200, 800, 781)
    ids = [i for part in (opt, cal, test) for i in pool_rows(data, part)]
    assert len(set(ids)) == len(ids) == 1781


def test_split_seed_changes_partition():
    data = generate_dataset(GeneratorParams(m=5), 60, seed=3)
    a = split_dataset(data, SplitSpec(10, 30, 20), seed=1)
    b = split_dataset(data, SplitSpec(10, 30, 20), seed=2)
    assert [len(x) for x in a] == [len(x) for x in b]
    assert pool_rows(data, a[1]) != pool_rows(data, b[1])


def test_split_keeps_the_shuffle_permutation():
    data = generate_dataset(GeneratorParams(m=5), 60, seed=3)
    order = permutation(60, 9).tolist()
    parts = split_dataset(data, SplitSpec(10, 30, 20), seed=9)
    assert [i for part in parts for i in pool_rows(data, part)] == order


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
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.scores, pb.scores) and np.array_equal(pa.truth, pb.truth)


# ---------------------------------------------------------------- JSONL io

def test_roundtrip_equality():
    data = generate_dataset(GeneratorParams(m=12), 30, seed=11)
    text = serialize(data)
    back = read_dataset(io.StringIO(text))
    assert serialize(back) == text
    assert back.m == data.m and len(back) == len(data)
    assert np.array_equal(back.truth, data.truth)


def test_read_rejects_bad_score():
    # the JSON NaN literal parses, so the range check must fail it too
    for score in ("1.2", "NaN"):
        text = (
            '{"format":"oce-rcps-dataset","version":1,"m":2,"count":1,"seed":null,"params":null}\n'
            '{"scores":[0.5,%s],"truth":[0]}\n' % score
        )
        with pytest.raises(DatasetParseError, match="line 2"):
            read_dataset(io.StringIO(text))


def test_read_rejects_score_beyond_double_range():
    # np.asarray raised OverflowError, whose message names no line
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":2,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.5,%s],"truth":[0]}\n' % ("9" * 401)
    )
    with pytest.raises(DatasetParseError, match="line 2: score outside"):
        read_dataset(io.StringIO(text))


@pytest.mark.parametrize("score", ["true", '"0.5"'])
def test_read_rejects_bool_or_string_score(score):
    # np.asarray once read true as 1.0 and "0.5" as 0.5
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":1,"seed":null,"params":null}\n'
        '{"scores":[%s,0.5,0.2],"truth":[0]}\n' % score
    )
    with pytest.raises(DatasetParseError, match="line 2: scores must be numbers"):
        read_dataset(io.StringIO(text))


@pytest.mark.parametrize("truth", ["[true]", "[2,2]"])
def test_read_rejects_bool_or_duplicate_truth(truth):
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.2,0.5,0.9],"truth":%s}\n' % truth
    )
    with pytest.raises(DatasetParseError, match="line 2"):
        read_dataset(io.StringIO(text))


@pytest.mark.parametrize("field", ['"m":true,"count":1', '"m":1,"count":true'])
def test_read_rejects_bool_header_fields(field):
    # bool is a subclass of int: true once read as m = 1 or count = 1
    text = (
        '{"format":"oce-rcps-dataset","version":1,%s,"seed":null,"params":null}\n'
        '{"scores":[0.5],"truth":[0]}\n' % field
    )
    with pytest.raises(DatasetParseError, match="line 1"):
        read_dataset(io.StringIO(text))


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_read_rejects_a_version_that_only_equals_1(version):
    text = (
        '{"format":"oce-rcps-dataset","version":%s,"m":1,"count":1,"seed":null,"params":null}\n'
        '{"scores":[0.5],"truth":[0]}\n' % version
    )
    with pytest.raises(DatasetParseError, match="line 1: not an oce-rcps-dataset version 1 file"):
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


@pytest.mark.parametrize("header", ["[1]", '"x"', "null"])
def test_read_rejects_non_object_header(header):
    # header.get once raised AttributeError, an uncaught traceback in the CLI
    with pytest.raises(DatasetParseError, match="line 1: not an oce-rcps-dataset"):
        read_dataset(io.StringIO(header + "\n" + '{"scores":[0.5],"truth":[0]}\n'))


@pytest.mark.parametrize("row", ["[1,2]", "null", "3"])
def test_read_rejects_non_object_row(row):
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":2,"count":2,"seed":null,"params":null}\n'
        '{"scores":[0.5,0.2],"truth":[0]}\n' + row + "\n"
    )
    with pytest.raises(DatasetParseError, match="line 3: row needs scores and truth arrays"):
        read_dataset(io.StringIO(text))


def test_read_parses_each_line_on_its_own():
    # Joined into one JSON array, lines 3 and 4 merge into one row (the
    # extra key "x" swallows line 4) and line 5 splits into two, so the
    # row count still matches the header: only a per-line parse fails.
    row = '{"scores":[0.5,0.2],"truth":[0]}'
    text = (
        '{"format":"oce-rcps-dataset","version":1,"m":2,"count":4,"seed":null,"params":null}\n'
        + row + "\n"
        + '{"scores":[0.5,0.2],"truth":[1],"x":[{}\n'
        + "{}]}\n"
        + row + "," + row + "\n"
    )
    joined = json.loads("[" + ",".join(text.splitlines()[1:]) + "]")
    assert len(joined) == 4
    with pytest.raises(DatasetParseError, match="line 3: bad row") as exc:
        read_dataset(io.StringIO(text))
    assert exc.value.line_no == 3


_ROW = '{"scores":[0.5,0.2],"truth":[0]}'


@pytest.mark.parametrize("lines, error", [
    # the rows' first failing check is line 3's score type, but line 2 comes first
    (['{"scores":[0.5,0.2],"truth":[5]}', '{"scores":[true,0.2],"truth":[0]}'],
     "line 2: truth index out of range"),
    # a bad row above a line that does not parse is reported first
    ([_ROW, '{"scores":[1.2,0.2],"truth":[0]}', '{"scores":'], "line 3: score outside [0, 1]"),
    ([_ROW, '{"scores":', '{"scores":[1.2,0.2],"truth":[0]}'], "line 3: bad row"),
    # the named row's own length is reported
    ([_ROW, '{"scores":[0.5],"truth":[0]}', '{"scores":[0.5,0.2,0.1],"truth":[0]}'],
     "line 3: expected 2 scores, got 1"),
])
def test_the_first_bad_line_is_named(lines, error):
    text = "\n".join(
        ['{"format":"oce-rcps-dataset","version":1,"m":2,"count":3,"seed":null,"params":null}',
         *lines]) + "\n"
    with pytest.raises(DatasetParseError) as exc:
        read_dataset(io.StringIO(text))
    assert str(exc.value).startswith(error)
    assert exc.value.line_no == int(error.split()[1][:-1])


def _corrupt(kind, scores, truth, m):
    """Corrupt one row's lists in place; returns the per-row check's message."""
    if kind == "bool score":
        scores[0] = True
        return "scores must be numbers"
    if kind == "string score":
        scores[-1] = "0.5"
        return "scores must be numbers"
    if kind == "wrong length":
        scores.append(0.5)
        return f"expected {m} scores, got {m + 1}"
    if kind in ("nan score", "score above 1", "negative score"):
        scores[0] = {"nan score": math.nan, "score above 1": 1.5, "negative score": -0.25}[kind]
        return "score outside [0, 1]"
    if kind == "duplicate truth":
        truth.extend([0, 0] if not truth else [truth[0]])
        return "duplicate truth index"
    truth.append({"bool truth": True, "negative truth": -1, "truth out of range": m}[kind])
    return "truth index out of range"


CORRUPTIONS = ("bool score", "string score", "nan score", "score above 1", "negative score",
               "wrong length", "bool truth", "negative truth", "truth out of range",
               "duplicate truth")


@st.composite
def jsonl_rows(draw):
    """(m, rows, blank): JSON rows of a valid file, some with an extra key,
    and which rows a blank line precedes."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    rows = []
    for _ in range(n):
        row = {
            "scores": draw(st.lists(score, min_size=m, max_size=m)),
            "truth": draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m)),
        }
        if draw(st.booleans()):
            row["x"] = [{}]
        rows.append(row)
    blank = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return m, rows, blank


def _jsonl(m, rows, blank):
    header = {"format": "oce-rcps-dataset", "version": 1, "m": m, "count": len(rows)}
    lines, line_nos = [json.dumps(header)], []
    for row, gap in zip(rows, blank):
        if gap:
            lines.append("")
        lines.append(json.dumps(row))
        line_nos.append(len(lines))
    return "\n".join(lines) + "\n", line_nos


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=30, deadline=None)
@given(file=jsonl_rows(), data=st.data())
def test_bulk_checks_match_the_per_row_reference(kind, file, data):
    m, rows, blank = file
    text, line_nos = _jsonl(m, rows, blank)
    got = read_dataset(io.StringIO(text))
    want_scores = np.array([row["scores"] for row in rows], dtype=np.float64)
    want_truth = np.array([np.isin(np.arange(m), row["truth"]) for row in rows])
    assert np.array_equal(got.scores, want_scores) and np.array_equal(got.truth, want_truth)

    # one bad row among valid ones: the bulk checks must notice it, and the
    # error names the per-row check's message and line
    k = data.draw(st.integers(0, len(rows) - 1))
    message = _corrupt(kind, rows[k]["scores"], rows[k]["truth"], m)
    text, line_nos = _jsonl(m, rows, blank)
    with pytest.raises(ValueError):
        datagen._arrays(rows, m)
    with pytest.raises(DatasetParseError) as exc:
        read_dataset(io.StringIO(text))
    assert exc.value.line_no == line_nos[k]
    assert str(exc.value) == f"line {line_nos[k]}: {message}"


# ---------------------------------------------------------------- rng

def test_mix64_spreads_indices():
    seeds = {mix64(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_splitmix_floats_in_unit_interval():
    values = uniforms(7, 0, 1000)
    assert np.all(values >= 0.0) and np.all(values < 1.0)
    # crude uniformity check
    assert abs(values.mean() - 0.5) < 0.05


def test_shuffle_is_permutation():
    items = permutation(100, 7).tolist()
    assert sorted(items) == list(range(100))
    assert items != list(range(100))


@settings(deadline=None)
@given(SEEDS, st.integers(0, 300), st.integers(0, 50))
def test_draws_match_sequential_stream(seed, skip, count):
    stream = SplitMix64(seed)
    for _ in range(skip):
        stream.next_uint64()
    assert draws(seed, skip, count).tolist() == [stream.next_uint64() for _ in range(count)]
    floats = SplitMix64(seed).next_floats(skip + count)[skip:]
    assert uniforms(seed, skip, count).tolist() == floats.tolist()


@settings(deadline=None)
@given(SEEDS, st.integers(0, 80))
def test_shuffle_matches_sequential_stream(seed, n):
    expected = list(range(n))
    SplitMix64(seed).shuffle(expected)
    order = permutation(n, seed)
    assert order.dtype == np.intp and order.tolist() == expected


def swapped_in_turn(targets: list) -> list:
    """The sequential swap loop the shuffle applies its targets with."""
    items = list(range(len(targets)))
    for i in range(len(targets) - 1, 0, -1):
        j = targets[i]
        items[i], items[j] = items[j], items[i]
    return items


@st.composite
def swap_targets(draw):
    """Valid targets, 0 <= t[i] <= i."""
    return [draw(st.integers(0, i)) for i in range(draw(st.integers(0, 120)))]


@settings(deadline=None)
@given(swap_targets())
@example([0] * 300)  # every step targets position 0
@example(list(range(300)))  # every step swaps with itself
@example([max(i - 1, 0) for i in range(300)])  # one chain through every step
def test_loop_free_swaps_match_the_swap_loop(targets):
    order = rng._swapped(np.array(targets, dtype=np.intp))
    assert order.dtype == np.intp and order.tolist() == swapped_in_turn(targets)


def test_loop_free_swaps_match_the_swap_loop_on_every_short_list():
    for n in range(8):
        for targets in itertools.product(*map(range, range(1, n + 1))):
            order = rng._swapped(np.array(targets, dtype=np.intp))
            assert order.tolist() == swapped_in_turn(list(targets)), targets


class _Scripted(SplitMix64):
    """A stream that replays fixed draws."""

    def __init__(self, values):
        self._values = iter(values)

    def next_uint64(self) -> int:
        return next(self._values)


def test_shuffle_rejected_draw_extends_block(monkeypatch):
    # 2^64 mod 5 = 2^64 mod 3 = 1, so the draw 2^64 - 1 is rejected at
    # positions 4 and 2 (bounds 5 and 3) and accepted at position 3, whose
    # bound 4 divides 2^64
    top = 2**64 - 1
    values = [top, top, 7, top, top, 5, 3]
    reads = []

    def fake(seed, skip, count):
        reads.append((skip, count))
        assert len(reads) <= 4, "shuffle reads the same draws again"
        return np.array(values[skip:skip + count], dtype=np.uint64)

    monkeypatch.setattr(rng, "draws", fake)
    expected = list(range(5))
    _Scripted(values).shuffle(expected)
    assert permutation(5, 0).tolist() == expected
    assert reads == [(0, 4), (1, 4), (2, 4), (5, 2)]  # each rejection starts a new block


@settings(deadline=None, max_examples=60)
@given(SEEDS, st.integers(1, 8), st.sampled_from([0.01, 0.05, 0.3, 0.9]), st.integers(1, 12))
@example(seed=0, m=1, rho=0.05, count=12)
@example(seed=2**64 - 1, m=1, rho=0.01, count=12)
def test_generation_matches_sequential_stream(seed, m, rho, count):
    # m = 1 with a small rho resamples the membership draws almost every time
    params = GeneratorParams(m=m, rho=rho)
    data = generate_dataset(params, count, seed)
    for i, (scores, truth) in enumerate(zip(data.scores, data.truth)):
        ref = generate_example(params, mix64(seed, i))
        assert frozenset(np.flatnonzero(truth).tolist()) == ref.truth
        assert scores.tobytes() == ref.scores.tobytes()


def test_only_datagen_touches_the_loss_counts():
    # a Dataset's private fields (its pool, its rows in it, the kept loss
    # counts and the view and gather helpers) and the pool class are read
    # and written by datagen alone, as attributes or as imported names
    private = {"_counts", "_rows", "_pool", "_take", "_view", "_Pool"}
    modules = sorted(Path(datagen.__file__).parent.glob("*.py"))
    assert {"risk.py", "calibrate.py", "harness.py", "cli.py"} <= {p.name for p in modules}
    field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    found = [
        f"{path.name}:{node.lineno} {getattr(node, field[type(node)])}"
        for path in modules if path.name != "datagen.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if type(node) in field and getattr(node, field[type(node)]) in private
    ]
    assert found == []
