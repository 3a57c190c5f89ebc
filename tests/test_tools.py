"""The repository's helper scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = '''"""A module docstring
over two lines."""

import math  # a comment after code


def f(x):
    """A function docstring."""
    # a comment line

    text = """not a docstring,
    but a string over two lines"""
    return math.floor(x), text
'''


def test_src_lines_counts_code_outside_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    out = subprocess.run([sys.executable, str(TOOLS / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    # a.py: import, def, the two lines of the string, return
    assert rows == {"pkg/a.py": ["13", "5"], "pkg/b.py": ["3", "1"], "total": ["16", "6"]}


E2E = [("trials_per_s", "higher", 0.25), ("peak_rss_mb", "lower", 0.1)]


def canned_run(seed, values, fingerprint, src):
    """A benchmark run's standard output, as perfbench/run.py prints it, reduced to what the summary reads."""
    report = {"fingerprint": {"sha256": fingerprint, "trials": 100}, "seed": seed, "trials": 300,
              "workload": "mc-g1000"}
    facts = {"cpu_model": "cpu", "nproc": 2, "numpy": "2", "python": "3", "scipy": "1", "src_sha256": src}
    verdict = {"correct": True, "attempted": 301, "failed": 0,
               "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}
    return "\n".join([
        f"perfbench mc-g1000 seed={seed} seconds=20 trace=0",
        "report " + json.dumps(report), "facts " + json.dumps(facts), json.dumps(verdict),
    ]) + "\n"


def canned_bench(tmp_path, pairs, faster):
    """A parent checkout holding only a BENCHMARK.json with mc-g1000 as its
    one workload, and a runs directory of `pairs` canned pairs in which the
    change is 20% faster in the pairs that `faster` names and 10% slower in
    the others, its peak RSS 1 MB lower in pairs 1-3 only."""
    parent, runs = tmp_path / "parent", tmp_path / "runs"
    parent.mkdir(parents=True)
    runs.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "workloads": [{"name": "mc-g1000"}],
         "end_to_end": [{"name": n, "better": b, "bound": x} for n, b, x in E2E]}))
    for i in range(1, pairs + 1):
        speed = 100.0 + i
        values = {
            "parent": {"trials_per_s": speed, "peak_rss_mb": 60.0},
            "change": {"trials_per_s": speed * (1.2 if faster(i) else 0.9),
                       "peak_rss_mb": 59.0 if i <= 3 else 60.0},
        }
        for side in ("parent", "change"):
            (runs / f"{side}-mc-g1000-{i}.out").write_text(
                canned_run(40 + i, values[side], f"fp{i}", side))
    return parent, runs


def bench_pairs(parent, runs, *args, check=True):
    return subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), str(parent), str(parent.parent / "absent"),
         "--runs-dir", str(runs), "--claim", "mc-g1000.trials_per_s", "--summarize", *args],
        capture_output=True, text=True, check=check)


def test_bench_pairs_summarizes_canned_runs_without_running_any(tmp_path):
    parent, runs = canned_bench(tmp_path, 10, lambda i: i != 5)

    def summary():
        return json.loads(bench_pairs(parent, runs).stdout)

    got = summary()
    speed = got["metrics"]["mc-g1000.trials_per_s"]
    assert speed["parent_median"] == 105.5 and speed["change_median"] == 126.0
    assert speed["parent_quartiles"] == [103.25, 107.75] and speed["change_better_pairs"] == 9
    # the fifth pair spreads the change's runs past the 25% bound, and they
    # overlap the parent's, so the metric is unresolved
    assert speed["run_spread"] == round((110 * 1.2 - 105 * 0.9) / 126.0, 4)
    assert speed["within_bound"] and speed["unresolved"]
    assert got["claim"]["met"] and got["claim"]["parent_iqr"] == 4.5
    rss = got["metrics"]["mc-g1000.peak_rss_mb"]
    assert rss["change_better_pairs"] == 3 and rss["run_spread"] == round(1 / 60, 4)
    assert rss["change_frac"] == 1.0 and not rss["unresolved"]
    assert got["seeds"] == list(range(41, 51)) and got["src_sha256"] == {"parent": "parent", "change": "change"}
    assert got["trial_fingerprints_equal"] and got["correct"] == {"parent": True, "change": True}
    assert got["attempted_operations"] == {"parent": 3010, "change": 3010}
    # one pair whose trials differ fails the fingerprint check
    (runs / "change-mc-g1000-7.out").write_text(
        canned_run(47, {"trials_per_s": 128.4, "peak_rss_mb": 60.0}, "other", "change"))
    assert not summary()["trial_fingerprints_equal"]


def test_bench_pairs_claim_needs_nine_tenths_of_the_pairs(tmp_path):
    # of 20 pairs, 9 or 17 better miss the claim, the latter with a median
    # gain past the parent's IQR, and 18 meet it; fewer than 10 pairs
    # cannot be claimed
    for better, met in ((9, False), (17, False), (18, True)):
        parent, runs = canned_bench(tmp_path / str(better), 20, lambda i: i <= better)
        claim = json.loads(bench_pairs(parent, runs, "--pairs", "20").stdout)["claim"]
        assert claim["change_better_pairs"] == better and claim["met"] == met
        assert better < 17 or claim["median_difference"] > claim["parent_iqr"]
    few = bench_pairs(parent, runs, "--pairs", "9", check=False)
    assert few.returncode != 0 and "--claim needs at least 10 pairs" in few.stderr
