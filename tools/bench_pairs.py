"""Run alternating benchmark pairs in two checkouts and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE --runs-dir DIR [--pairs 10]
        [--seed 1] [--claim WORKLOAD.METRIC]
    python3 tools/bench_pairs.py PARENT CHANGE --runs-dir DIR --summarize ...

PARENT and CHANGE are the roots of two checkouts. Pair i (from 1) runs
each workload of PARENT's BENCHMARK.json on its own, one workload at a
time, with seed SEED + i - 1: `python3 perfbench/run.py --workload W
--seed S --seconds SECONDS` from each checkout's root, SECONDS the
BENCHMARK.json's run_seconds, PARENT first on odd pairs and CHANGE first
on even ones. Each run's standard output is kept as DIR/{parent,change}-W-i.out,
and a run that exits nonzero stops the tool. With --summarize nothing is
run: the summary is made from the files already in DIR.

The summary, printed as one JSON object, has per metric the medians and
quartiles of each side's runs, how many pairs the change reads better in,
and `run_spread` with the `unresolved` flag of `UNRESOLVED_RULE`; each
end-to-end metric's direction and bound come from PARENT's BENCHMARK.json.
It also has both sides' operation counts and `correct` verdicts, whether
every pair's trial fingerprints are equal, and, with --claim, whether that
metric is better in at least nine tenths of the pairs and in the median by
more than the parent's interquartile range. --claim needs at least 10
pairs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")

UNRESOLVED_RULE = (
    "run_spread is the wider side's (max - min) / median; a metric whose run_spread exceeds its "
    "BENCHMARK.json bound is unresolved unless every change run reads better than every parent run"
)


def run_path(runs_dir: Path, side: str, workload: str, pair: int) -> Path:
    return runs_dir / f"{side}-{workload}-{pair}.out"


def parse_run(text: str) -> dict:
    """The verdict (the last line's JSON object), the workload's report and
    the machine facts of one run's standard output."""
    lines = text.splitlines()
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    facts = next(json.loads(x[len("facts "):]) for x in lines if x.startswith("facts "))
    return {"verdict": json.loads(lines[-1]), "report": report, "facts": facts}


def run_pairs(roots: dict, runs_dir: Path, workloads, pairs: int, seconds, seed: int) -> None:
    runs_dir.mkdir(parents=True, exist_ok=True)
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed + pair - 1), "--seconds", str(seconds)]
                done = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True)
                run_path(runs_dir, side, workload, pair).write_text(done.stdout)
                if done.returncode != 0:
                    sys.exit(f"{side} {workload} pair {pair} exited {done.returncode}:\n{done.stderr}")
                print(f"pair {pair} {workload} {side} done", file=sys.stderr)


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's block from its per-pair runs, in pair order."""
    p, c = np.array(parent), np.array(change)
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = float(np.median(p)), float(np.median(c))
    spread = max(float((x.max() - x.min()) / np.median(x)) for x in (p, c))
    separated = (sign * c).min() > (sign * p).max()  # every change run reads better
    return {
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": [round(float(q), 4) for q in np.percentile(p, [25, 75])],
        "change_quartiles": [round(float(q), 4) for q in np.percentile(c, [25, 75])],
        "change_frac": round(cm / pm, 4),
        "change_better_pairs": int(np.sum(sign * c > sign * p)),
        "within_bound": bool(sign * (cm - pm) >= -bound * pm),
        "run_spread": round(spread, 4),
        "unresolved": bool(spread > bound and not separated),
        "parent_runs": [round(float(x), 4) for x in p],
        "change_runs": [round(float(x), 4) for x in c],
    }


def summarize(bench: dict, runs_dir: Path, workloads, pairs: int, claim: str | None) -> dict:
    runs = {(side, w, i): parse_run(run_path(runs_dir, side, w, i).read_text())
            for side in SIDES for w in workloads for i in range(1, pairs + 1)}
    seeds = [runs["parent", workloads[0], i]["report"]["seed"] for i in range(1, pairs + 1)]
    facts = {side: runs[side, workloads[0], 1]["facts"] for side in SIDES}
    out = {
        "seeds": seeds,
        "order": "alternating: odd pairs ran the parent first, even pairs the change first, "
                 "workload by workload",
        "pairs": pairs,
        "failed_operations": {s: sum(r["verdict"]["failed"] for k, r in runs.items() if k[0] == s)
                              for s in SIDES},
        "attempted_operations": {s: sum(r["verdict"]["attempted"] for k, r in runs.items()
                                        if k[0] == s) for s in SIDES},
        "correct": {s: all(r["verdict"]["correct"] for k, r in runs.items() if k[0] == s)
                    for s in SIDES},
        "trial_fingerprints_equal": all(
            runs["parent", w, i]["report"]["fingerprint"] == runs["change", w, i]["report"]["fingerprint"]
            for w in workloads for i in range(1, pairs + 1)),
        "machine": {key: facts["change"][key] for key in ("cpu_model", "nproc", "numpy", "python", "scipy")},
        "src_sha256": {s: facts[s]["src_sha256"] for s in SIDES},
        "unresolved_rule": UNRESOLVED_RULE,
        "metrics": {},
        "trials_per_run": {s: {w: [runs[s, w, i]["report"]["trials"] for i in range(1, pairs + 1)]
                               for w in workloads} for s in SIDES},
    }
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {s: [runs[s, w, i]["verdict"]["metrics"][name]["value"]
                          for i in range(1, pairs + 1)] for s in SIDES}
            out["metrics"][f"{w}.{name}"] = compare(
                values["parent"], values["change"], metric["better"], metric["bound"])
    if claim:
        m = out["metrics"][claim]
        lo, hi = m["parent_quartiles"]
        difference = m["change_median"] - m["parent_median"]
        better = next(x["better"] for x in bench["end_to_end"] if x["name"] == claim.split(".", 1)[1])
        gain = difference if better == "higher" else -difference
        out["claim"] = {
            "metric": claim,
            "parent_median": m["parent_median"],
            "change_median": m["change_median"],
            "parent_iqr": round(hi - lo, 4),
            "median_difference": round(difference, 4),
            "change_better_pairs": m["change_better_pairs"],
            "met": bool(10 * m["change_better_pairs"] >= 9 * pairs and gain > hi - lo),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--runs-dir", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim")
    parser.add_argument("--summarize", action="store_true")
    args = parser.parse_args(argv)
    if args.claim and args.pairs < 10:
        parser.error("--claim needs at least 10 pairs")
    roots = {"parent": args.parent, "change": args.change}
    bench = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if not args.summarize:
        run_pairs(roots, args.runs_dir, workloads, args.pairs, bench["run_seconds"], args.seed)
    print(json.dumps(summarize(bench, args.runs_dir, workloads, args.pairs, args.claim), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
