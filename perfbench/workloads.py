"""The benchmark's workloads.

Every workload uses the default generated pool (1,781 examples, m=100,
pool seed 20240501), FNR loss, alpha=0.4, delta=0.2 and the 200/800/781
split; the benchmark's --seed is the master seed. All are closed loops:
one client that starts the next operation when the last one returns.

mc-g100 and mc-g1000 call `harness.run_trial` for trial indices 0, 1, ...
in turn, which is the loop `run_trials` runs at jobs=1, cycling through
their methods so each gets an equal share. cli-session runs fresh
`oce-rcps` processes one at a time.

Timings are scaled for host contention by `clock.Meter`. The report line
gives the raw wall-clock figures and two ungated ones: wall_s, the whole
run, whose timed phase on mc-g1000 (200 trials) and cli-session (its
fixed processes) outlasts --seconds, so its length follows host speed;
and trials_process_per_s, the rate of cli-session's `trials` process.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from clock import Meter
from spans import Tracer, layer_metrics, shares

POOL_SIZE = 1781
POOL_SEED = 20240501
ALPHA, DELTA = 0.4, 0.2
SPLIT = (200, 800, 781)
SETUP_REPEATS = 3
MIN_TRIALS = 200  # so p95 keeps at least 10 trials beyond it
FINGERPRINT_TRIALS = 100
SAMPLE = 12  # trials re-checked against the reference
CALIBRATIONS = 24  # direct calibrations of trials 0.., spread over the timed phase
CLI_TRIALS = 200
CLI_MIN_CALIBRATE = 5
PACE = 0.8
MAX_JOBS = 8  # worker cap for `trials --jobs nproc`, to bound memory
CHILD_TIMEOUT_S = 60

# name -> (grid resolution, (method, risk) pairs run in turn)
MC = {
    "mc-g100": (100, (("oce-rcps", "cvar:0.9"), ("oce-crc", "cvar:0.9"))),
    "mc-g1000": (1000, (("rcps", "average"), ("oce-rcps", "entropic:3"),
                        ("oce-crc", "cvar:0.9"))),
}
NAMES = (*MC, "cli-session")

SETUP_SNIPPET = (
    "from oce_rcps.datagen import GeneratorParams, generate_dataset\n"
    f"generate_dataset(GeneratorParams(), {POOL_SIZE}, {POOL_SEED})\n"
)

HERE = Path(__file__).resolve().parent


class Session:
    """One workload run: where it writes, its meter, ledger and tracer."""

    def __init__(self, root: Path, trace: bool):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.pop("OCE_RCPS_LOG", None)
        self.ledger = checks.Ledger()
        self.meter = Meter()
        self.tracer = Tracer() if trace else None

    def child(self, cmd, what):
        """Run a child process to completion; (wall, scaled) seconds, or None if it failed."""

        def run():
            proc = subprocess.Popen(
                [str(c) for c in cmd], cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
            )
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                _, err = proc.communicate()
            return proc.returncode, err.decode(errors="replace")[-800:]

        (code, err), wall, scaled = self.meter.time(run)
        return (wall, scaled) if self.ledger.tally(code == 0, f"{what} exited {code}: {err}") else None


def _trial_config(method, risk, grid):
    from oce_rcps.calibrate import LambdaGrid
    from oce_rcps.datagen import SplitSpec
    from oce_rcps.harness import TrialConfig
    from oce_rcps.risk import LossKind, OceCost

    return TrialConfig(
        method=method, cost=OceCost.parse(risk), loss=LossKind("fnr"),
        alpha=ALPHA, delta=DELTA, grid=LambdaGrid(grid), split=SplitSpec(*SPLIT),
    )


def _calibrate_once(pool, cfg, seed):
    """Split and select through the library API; returns lambda_hat."""
    from oce_rcps import calibrate, datagen

    opt, cal, _ = datagen.split_dataset(pool, cfg.split, seed)
    spec = calibrate.ReliabilitySpec(cfg.alpha, cfg.delta)
    if cfg.method == "rcps":
        return calibrate.select_rcps(cal, spec, cfg.grid, cfg.loss).lambda_hat
    select = calibrate.select_oce_crc if cfg.method == "oce-crc" else calibrate.select_oce_rcps
    return select(cal, opt, spec, cfg.grid, cfg.cost, cfg.loss).lambda_hat


class TrialRun:
    """Trials run so far: records, wall and scaled seconds, wall seconds per tag."""

    def __init__(self, session: Session, pool, configs, seed):
        self.s, self.pool, self.configs, self.seed = session, pool, configs, seed
        self.records, self.wall, self.scaled, self.by_tag = [], [], [], {}
        self.next = 0

    def step(self, count):
        """Run the next `count` trial indices, cycling through the configs."""
        from oce_rcps.harness import run_trial

        for i in range(self.next, self.next + count):
            cfg = self.configs[i % len(self.configs)]
            tag = f"{cfg.method} {cfg.cost.spelled()}"
            if self.s.tracer:
                self.s.tracer.tag = tag
            try:
                rec, wall, scaled = self.s.meter.time(run_trial, self.pool, cfg, i, self.seed)
            except Exception:  # count it and keep measuring
                traceback.print_exc()
                self.s.ledger.tally(False, f"trial {i} raised")
                continue
            self.s.ledger.tally(True, "")
            self.records.append(rec)
            self.wall.append(wall)
            self.scaled.append(scaled)
            self.by_tag[tag] = self.by_tag.get(tag, 0.0) + wall
        self.next += count


def _percentiles(seconds):
    ms = 1000.0 * np.asarray(seconds)
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 95))


def _csv(records) -> bytes:
    from oce_rcps import harness

    buf = io.StringIO()
    harness.records_to_csv(records, buf)
    return buf.getvalue().encode()


def _check_trials(ledger, records, cfg_by_method, seed, scores, truth):
    for rec in records:
        ledger.record(rec, seed, cfg_by_method[rec.method].grid.resolution)
    for rec in records[:SAMPLE]:
        ledger.reference(rec, SPLIT, scores, truth, cfg_by_method[rec.method].cost.spelled(), ALPHA)
    oce_rcps = [r for r in records if r.method == "oce-rcps"]
    return ledger.satisfaction(oce_rcps, DELTA, "oce-rcps") if oce_rcps else None


def _calibration_sample(s: Session, pool, cfg_by_method, rec):
    """Time a direct calibration of a trial's split and check that it
    picks the trial's lambda_hat."""
    cfg = cfg_by_method[rec.method]
    if s.tracer:
        s.tracer.active = False
    lam, wall, scaled = s.meter.time(_calibrate_once, pool, cfg, rec.seed)
    if s.tracer:
        s.tracer.active = True
    s.ledger.tally(lam == rec.lambda_hat,
                   f"trial {rec.trial_index}: direct calibration chose {lam!r}")
    return wall, scaled


def _report(trials: TrialRun, s: Session, **extra) -> dict:
    _, p95 = _percentiles(trials.scaled)
    return {
        "trials": len(trials.records), "latency_samples": len(trials.scaled),
        "beyond_p95": int(np.sum(1000.0 * np.asarray(trials.scaled) > p95)),
        "host_speed": s.meter.speed(),
        **extra,
    }


def _end_to_end(trials: TrialRun, rates, cals, setup, wall_start, rusage_who):
    """The end-to-end metrics, and the raw wall-clock figures behind them
    with the run's wall time.

    rates, cals and setup hold (wall, scaled) pairs; failed children are None.
    """
    cals, setup = [c for c in cals if c], [c for c in setup if c]

    def pick(i):
        p50, p95 = _percentiles((trials.wall, trials.scaled)[i])
        return {
            "trials_per_s": rates[i], "trial_ms_p50": p50, "trial_ms_p95": p95,
            "calibrate_s": statistics.median(c[i] for c in cals),
            "setup_s": statistics.median(c[i] for c in setup),
        }

    metrics, raw = pick(1), pick(0)
    metrics["peak_rss_mb"] = resource.getrusage(rusage_who).ru_maxrss / 1024.0
    raw["wall_s"] = perf_counter() - wall_start
    return metrics, raw


def run_mc(name, seed, seconds, s: Session):
    from oce_rcps import datagen, harness

    wall_start = perf_counter()
    grid, pairs = MC[name]
    setup = []
    if s.tracer:
        s.tracer.install()
        s.tracer.tag = "setup"
    else:
        setup = [s.child([sys.executable, "-c", SETUP_SNIPPET], f"setup {k}")
                 for k in range(SETUP_REPEATS)]
    pool = datagen.generate_dataset(datagen.GeneratorParams(), POOL_SIZE, POOL_SEED)
    configs = [_trial_config(m, r, grid) for m, r in pairs]
    cfg_by_method = {c.method: c for c in configs}

    trials = TrialRun(s, pool, configs, seed)
    records, cals = trials.records, []
    start = perf_counter()
    while trials.next < MIN_TRIALS or perf_counter() - start < seconds:
        trials.step(len(configs))
        k = len(cals)
        due = perf_counter() - start >= k * seconds / CALIBRATIONS
        if due and k < min(CALIBRATIONS, len(records)):
            cals.append(_calibration_sample(s, pool, cfg_by_method, records[k]))
    elapsed = perf_counter() - start

    if s.tracer:
        s.tracer.tag = "post"
    for method in cfg_by_method:
        mine = [r for r in records if r.method == method]
        if mine:
            harness.summarize(mine, ALPHA)
    fingerprint = hashlib.sha256(_csv(records[:FINGERPRINT_TRIALS])).hexdigest()
    if s.tracer:
        s.tracer.active = False

    scores, truth = checks.pool_arrays(pool.examples, pool.m)
    satisfaction = _check_trials(s.ledger, records, cfg_by_method, seed, scores, truth)

    report = _report(
        trials, s, timed_s=elapsed, calibrations=len(cals), setup_runs=len(setup),
        fingerprint={"trials": min(FINGERPRINT_TRIALS, len(records)), "sha256": fingerprint},
        oce_rcps_satisfaction=satisfaction,
    )
    rates = [len(records) / sum(x) for x in (trials.wall, trials.scaled)]
    if s.tracer:
        report["shares"] = shares(s.tracer, trials.by_tag)
        return layer_metrics(s.tracer, rates[1]), report
    metrics, report["raw"] = _end_to_end(trials, rates, cals, setup, wall_start,
                                         resource.RUSAGE_SELF)
    return metrics, report


def run_cli_session(seed, seconds, s: Session):
    from oce_rcps import datagen

    wall_start = perf_counter()
    out = s.root / ".perfbench_out" / "cli-session"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    children = 0

    def cli(*argv):
        """One `oce-rcps` process; (wall, scaled) seconds, or None if it failed."""
        nonlocal children
        children += 1
        if s.tracer:
            spans_out = out / f"spans_{children}.json"
            cmd = [sys.executable, HERE / "child.py", spans_out, *argv]
        else:
            cmd = [sys.executable, "-m", "oce_rcps.cli", *argv]
        took = s.child(cmd, argv[0])
        if took and s.tracer:
            s.tracer.merge(json.loads(spans_out.read_text()))
        return took

    pool = out / "pool.jsonl"
    gen = ("generate", "--count", POOL_SIZE, "--seed", POOL_SEED, "--output", pool)
    setup = [cli(*gen) for _ in range(SETUP_REPEATS)]

    run_args = ("--method", "oce-rcps", "--risk", "cvar:0.9", "--loss", "fnr",
                "--alpha", ALPHA, "--delta", DELTA)
    jobs = min(len(os.sched_getaffinity(0)), MAX_JOBS)

    def calibrate(k):
        return cli("calibrate", "--data", pool, *run_args, "--seed", seed + k,
                   "--output-dir", out / f"cal_{k}")

    # The timed phase interleaves the CLI processes with chunks of the
    # in-process jobs=1 trials that trials.csv is checked against, so that
    # every latency sample spans the whole phase.
    start = perf_counter()
    cals = [calibrate(0)]
    lam = json.loads((out / "cal_0" / "calibration.json").read_text())["lambda_hat"]
    cli("evaluate", "--data", pool, "--lambda", repr(lam), "--risk", "cvar:0.9",
        "--loss", "fnr", "--alpha", ALPHA, "--output", out / "evaluate.json")
    trials_run = cli("trials", "--pool", pool, *run_args, "--grid", 100,
                     "--trials", CLI_TRIALS, "--seed", seed, "--jobs", jobs,
                     "--no-timestamp", "--output-dir", out / "trials")
    cfg = _trial_config("oce-rcps", "cvar:0.9", 100)
    trials = TrialRun(s, datagen.read_dataset_path(pool), [cfg], seed)
    while (trials.next < CLI_TRIALS or len(cals) < CLI_MIN_CALIBRATE
           or perf_counter() - start < seconds):
        cals.append(calibrate(len(cals)))
        # pace the in-process trials to end at PACE of the timed phase
        due = CLI_TRIALS * min(1.0, (perf_counter() - start) / (PACE * seconds))
        trials.step(max(0, round(due) - trials.next))
    elapsed = perf_counter() - start
    records = trials.records

    # checks, outside the timed phase
    ledger = s.ledger
    for k in range(len(cals)):
        doc = json.loads((out / f"cal_{k}" / "calibration.json").read_text())
        ledger.on_grid(doc["lambda_hat"], doc["grid"], f"calibrate {k}")
    scores, truth = checks.read_jsonl(pool)
    evaluated = json.loads((out / "evaluate.json").read_text())
    ref = checks.metrics_at(scores, truth, np.arange(len(scores)), lam, "cvar:0.9")
    got = (evaluated["test_oce_risk"], evaluated["mean_rel_size"], evaluated["median_rel_size"])
    ledger.tally(all(map(checks.close, got, ref)), f"evaluate {got} != reference {ref}")
    cli_csv = (out / "trials" / "trials.csv").read_bytes()
    ledger.tally(cli_csv == _csv(records),
                 f"trials.csv at --jobs {jobs} differs from the in-process jobs=1 run")
    satisfaction = _check_trials(ledger, records, {"oce-rcps": cfg}, seed, scores, truth)

    report = _report(
        trials, s, timed_s=elapsed, jobs=jobs, calibrate_runs=len(cals),
        setup_runs=len(setup), lambda_hat_0=lam,
        fingerprint={"trials": CLI_TRIALS, "sha256": hashlib.sha256(cli_csv).hexdigest()},
        oce_rcps_satisfaction=satisfaction,
    )
    # trials_per_s comes from the in-process trials, as on mc-*. The rate
    # of the `trials` process is reported raw and not gated: it keeps `jobs`
    # cores busy, so the one-core reference loop cannot scale it, and its
    # run-to-run spread reached 25% on a shared host.
    report["trials_process_per_s"] = CLI_TRIALS / trials_run[0]
    if s.tracer:
        return layer_metrics(s.tracer, report["trials_process_per_s"]), report
    rates = [len(records) / sum(x) for x in (trials.wall, trials.scaled)]
    metrics, report["raw"] = _end_to_end(trials, rates, cals, setup, wall_start,
                                         resource.RUSAGE_CHILDREN)
    return metrics, report


def run(name, seed, seconds, trace, root: Path):
    """Run one workload; returns (metrics, ledger, report)."""
    s = Session(root, trace)
    if name in MC:
        metrics, report = run_mc(name, seed, seconds, s)
    else:
        metrics, report = run_cli_session(seed, seconds, s)
    return metrics, s.ledger, report
