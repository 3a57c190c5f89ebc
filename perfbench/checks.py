"""Output checks owned by the benchmark.

The reference here recomputes a trial's test metrics from plain arrays:
its own splitmix64 (the algorithm documented in ``oce_rcps.rng``) to
redo the split, then test FNR, OCE risk and relative set size at the
selected threshold. It shares no code with ``oce_rcps.risk`` or
``oce_rcps.datagen.split_dataset``, so a fast path that drifts from the
definitions fails here.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

_MASK = (1 << 64) - 1
TOL = 1e-9


def _fin(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64(seed, index):
    return _fin(seed ^ _fin(index + 1))


def permutation(n, seed):
    """Fisher-Yates with splitmix64 draws and modulo rejection."""
    idx, state = list(range(n)), seed & _MASK
    for i in range(n - 1, 0, -1):
        limit = (2**64 // (i + 1)) * (i + 1)
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            u = _fin(state)
            if u < limit:
                break
        j = u % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def oce(losses, risk: str) -> float:
    name, _, beta = risk.partition(":")
    x = np.asarray(losses, dtype=np.float64)
    if name == "average":
        return float(x.mean())
    b = float(beta)
    if name == "entropic":
        return math.log(np.mean(np.exp(b * x))) / b
    # CVaR: t + E[(x - t)+]/(1 - b) is piecewise linear in t, so its
    # infimum sits at one of the samples
    t = np.unique(x)
    return float(np.min(t + np.maximum(x[None, :] - t[:, None], 0.0).mean(axis=1) / (1 - b)))


def metrics_at(scores, truth, rows, lam, risk):
    """(OCE risk of FNR, mean and median relative size) at threshold lam."""
    keep = scores[rows] >= 1.0 - lam
    hits = (keep & truth[rows]).sum(axis=1)
    size = truth[rows].sum(axis=1)
    rel = keep.sum(axis=1) / size
    return oce(1.0 - hits / size, risk), float(np.mean(rel)), float(np.median(rel))


def pool_arrays(examples, m):
    scores = np.stack([ex.scores for ex in examples])
    truth = np.zeros((len(examples), m), dtype=bool)
    for i, ex in enumerate(examples):
        truth[i, list(ex.truth)] = True
    return scores, truth


def read_jsonl(path):
    """Scores and truth mask from an oce-rcps-dataset file."""
    with open(path, encoding="utf-8") as fp:
        m = json.loads(fp.readline())["m"]
        rows = [json.loads(line) for line in fp if line.strip()]
    truth = np.zeros((len(rows), m), dtype=bool)
    for i, r in enumerate(rows):
        truth[i, r["truth"]] = True
    return np.array([r["scores"] for r in rows], dtype=np.float64), truth


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


class Ledger:
    """Operations attempted and failed: trials, processes and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def tally(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"perfbench: failed: {what}", file=sys.stderr)
        return ok

    def on_grid(self, lam, grid, what):
        k = round(lam * grid)
        return self.tally(0 <= k <= grid and lam == k / grid,
                          f"{what}: lambda_hat {lam!r} off grid {grid}")

    def record(self, rec, master_seed, grid):
        what = f"trial {rec.trial_index}"
        self.tally(rec.seed == mix64(master_seed, rec.trial_index), f"{what}: seed")
        self.on_grid(rec.lambda_hat, grid, what)

    def reference(self, rec, split, scores, truth, risk, alpha):
        """Recompute one trial's test metrics from its seed and lambda_hat."""
        what = f"trial {rec.trial_index}"
        perm = permutation(scores.shape[0], rec.seed)
        rows = perm[split[0] + split[1]: sum(split)]
        risk_v, mean_rel, med_rel = metrics_at(scores, truth, rows, rec.lambda_hat, risk)
        self.tally(
            close(rec.test_oce_risk, risk_v) and close(rec.mean_rel_size, mean_rel)
            and close(rec.median_rel_size, med_rel) and rec.satisfied == (rec.test_oce_risk <= alpha),
            f"{what}: test metrics differ from the reference",
        )

    def satisfaction(self, records, delta, what):
        """Rate of risk <= alpha must reach 1 - delta - 3 sd over N trials."""
        n = len(records)
        rate = sum(r.satisfied for r in records) / n
        floor = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / n)
        self.tally(rate >= floor, f"{what}: satisfaction {rate:.3f} < {floor:.3f} over {n}")
        return rate
