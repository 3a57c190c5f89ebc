import ast
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oce_rcps
from oce_rcps import cli, datagen
from oce_rcps.cli import run_cli
from oce_rcps.datagen import read_dataset_path

GEN = ["--m", "30", "--rho", "0.3"]
RUN = [
    "--method", "oce-rcps", "--risk", "cvar:0.8", "--loss", "fnr",
    "--alpha", "0.4", "--delta", "0.2", "--grid", "20",
]
POOL = ["--pool-size", "200", "--opt-size", "30", "--cal-size", "100", "--test-size", "70"]


def run(args):
    return run_cli([str(a) for a in args])


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pool.jsonl"
    assert run(["generate", *GEN, "--count", "200", "--seed", "5", "--output", path]) == 0
    return path


def test_generate_roundtrips(dataset_path):
    data = read_dataset_path(dataset_path)
    assert len(data) == 200 and data.m == 30


def test_generate_to_stdout(capsys):
    assert run(["generate", "--m", "4", "--count", "2", "--seed", "1", "--output", "-"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0])["format"] == "oce-rcps-dataset"
    assert len(out) == 3


def test_calibrate_outputs(dataset_path, tmp_path):
    outdir = tmp_path / "cal"
    code = run([
        "calibrate", *RUN, "--data", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--seed", "3",
        "--output-dir", outdir,
    ])
    assert code == 0
    payload = json.loads((outdir / "calibration.json").read_text())
    assert 0.0 <= payload["lambda_hat"] <= 1.0
    trace = (outdir / "trace.csv").read_text().splitlines()
    assert trace[0] == "lambda,bound,passed"
    assert len(trace) > 1


@pytest.mark.parametrize("method, walks", [
    ("oce-rcps", [(200, 1001)]),
    ("oce-crc", [(200, 1001)]),
    ("rcps", [(200, 1001)]),
])
def test_calibrate_walks_each_split_once(tmp_path, monkeypatch, method, walks):
    # the scan counts the pool its splits view, once, and the trace's bounds
    # read those counts, so neither the pool nor a split is walked again
    pool = tmp_path / "pool.jsonl"
    assert run(["generate", "--count", "200", "--seed", "1", "--output", pool]) == 0
    seen, walk = [], datagen._walk_counts
    monkeypatch.setattr(
        datagen, "_walk_counts", lambda data, lams: seen.append((len(data), len(lams))) or walk(data, lams)
    )
    code = run([
        "calibrate", "--method", method, "--risk", "cvar:0.9", "--loss", "fnr",
        "--alpha", "0.4", "--delta", "0.2", "--data", pool,
        "--opt-size", "40", "--cal-size", "150", "--seed", "3", "--output-dir", tmp_path / "cal",
    ])
    assert code == 0 and seen == walks


def test_calibrate_strict_infeasible_exit_code(dataset_path, tmp_path):
    base = [
        "calibrate", "--method", "oce-rcps", "--risk", "average", "--loss", "fnr",
        "--alpha", "0", "--delta", "0.2", "--grid", "10",
        "--data", dataset_path, "--opt-size", "30", "--cal-size", "100",
    ]
    assert run([*base, "--output-dir", tmp_path / "lax"]) == 0
    assert run([*base, "--strict", "--output-dir", tmp_path / "strict"]) == 1
    payload = json.loads((tmp_path / "strict" / "calibration.json").read_text())
    assert payload["feasible"] is False and payload["lambda_hat"] == 1.0


def test_evaluate_stdout(dataset_path, capsys):
    code = run([
        "evaluate", "--data", dataset_path, "--lambda", "0.9",
        "--risk", "cvar:0.8", "--loss", "fnr", "--alpha", "0.4",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] == (payload["test_oce_risk"] <= 0.4)
    assert payload["n"] == 200


def test_evaluate_entropic_tiny_beta_is_the_mean(dataset_path, capsys):
    # the entropic risk tends to the average risk as beta -> 0
    risks = []
    for risk in ("average", "entropic:1e-17"):
        assert run([
            "evaluate", "--data", dataset_path, "--lambda", "0.5",
            "--risk", risk, "--loss", "fnr",
        ]) == 0
        risks.append(json.loads(capsys.readouterr().out)["test_oce_risk"])
    assert 0.0 < risks[0] < 1.0
    assert abs(risks[1] - risks[0]) < 1e-9


def test_run_files_spell_the_risk_and_t_in_full(dataset_path, tmp_path, capsys):
    # a run file names its run as given: six significant digits would
    # spell the risk cvar:1, which no cvar accepts, and the t 0.123457
    run_flags = ["--method", "oce-rcps", "--risk", "cvar:0.9999999", "--loss", "fnr",
                 "--alpha", "0.4", "--delta", "0.2", "--grid", "20", "--t-mode", "fixed:0.1234567"]
    assert run(["calibrate", *run_flags, "--data", dataset_path, "--opt-size", "30",
                "--cal-size", "100", "--output-dir", tmp_path / "cal"]) == 0
    assert json.loads((tmp_path / "cal" / "calibration.json").read_text())["risk"] == "cvar:0.9999999"
    assert run(["trials", *run_flags, "--pool", dataset_path, *POOL[2:], "--trials", "2",
                "--seed", "1", "--output-dir", tmp_path / "trials"]) == 0
    summary = json.loads((tmp_path / "trials" / "summary.json").read_text())
    assert summary["config"]["risk"] == "cvar:0.9999999"
    assert summary["config"]["t_mode"] == "fixed:0.1234567"
    assert run(["evaluate", "--data", dataset_path, "--lambda", "0.5", "--risk", "cvar:0.9999999",
                "--loss", "fnr"]) == 0
    assert json.loads(capsys.readouterr().out)["risk"] == "cvar:0.9999999"


@pytest.mark.parametrize("method", ["oce-rcps", "oce-crc"])
def test_calibrate_subnormal_entropic_beta_picks_the_small_beta_lambda(tmp_path, method):
    # at beta = 5e-324, beta * u underflows to 0 without the beta floor, so
    # the bound (oce-rcps) or objective (oce-crc) lost its entropic cost
    pool = tmp_path / "pool.jsonl"
    assert run(["generate", "--count", 600, "--seed", 3, "--output", pool]) == 0
    picks = []
    for i, risk in enumerate(("entropic:5e-324", "entropic:1e-200")):
        outdir = tmp_path / str(i)
        assert run([
            "calibrate", "--method", method, "--risk", risk, "--loss", "fnr",
            "--alpha", 0.3, "--delta", 0.1, "--grid", 200, "--data", pool,
            "--opt-size", 150, "--cal-size", 450, "--output-dir", outdir,
        ]) == 0
        picks.append(json.loads((outdir / "calibration.json").read_text())["lambda_hat"])
    assert picks[0] == picks[1]


def test_trials_emits_files(dataset_path, tmp_path):
    outdir = tmp_path / "trials"
    code = run([
        "trials", *RUN, "--pool", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--test-size", "70",
        "--trials", "4", "--seed", "7", "--no-timestamp", "--output-dir", outdir,
    ])
    assert code == 0
    assert (outdir / "trials.csv").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["trials"] == 4
    assert "timestamp" not in summary
    assert summary["config"]["risk"] == "cvar:0.8"
    assert (outdir / "kde_risk.csv").exists() or (outdir / "raw_risk.csv").exists()


def test_single_trial_writes_raw_values(dataset_path, tmp_path):
    # one value has no kde: each series is written as its raw values
    outdir = tmp_path / "trials"
    assert run(["trials", *RUN, "--pool", dataset_path, *POOL[2:], "--trials", "1",
                "--seed", "7", "--no-timestamp", "--output-dir", outdir]) == 0
    assert not list(outdir.glob("kde_*.csv"))
    header, row = (outdir / "trials.csv").read_text().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    for name, column in (("risk", "test_oce_risk"), ("rel_size", "median_rel_size")):
        lines = (outdir / f"raw_{name}.csv").read_text().splitlines()
        assert lines == ["value", record[column]]
        assert lines[1] == repr(float(lines[1]))


def test_trials_byte_identical_reruns(dataset_path, tmp_path):
    outputs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert run([
            "trials", *RUN, "--pool", dataset_path,
            "--opt-size", "30", "--cal-size", "100", "--test-size", "70",
            "--trials", "4", "--seed", "7", "--no-timestamp", "--output-dir", outdir,
        ]) == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(outdir.iterdir())
        })
    assert outputs[0] == outputs[1]


def test_sweep_over_delta(dataset_path, tmp_path):
    outdir = tmp_path / "sweep"
    code = run([
        "sweep", "--vary", "delta", "--values", "0.4,0.2",
        "--method", "oce-rcps", "--risk", "cvar:0.8", "--loss", "fnr",
        "--alpha", "0.4", "--delta", "0.2", "--grid", "20",
        "--pool", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--test-size", "70",
        "--trials", "3", "--seed", "7", "--no-timestamp", "--output-dir", outdir,
    ])
    assert code == 0
    rows = (outdir / "sweep_summary.csv").read_text().splitlines()
    assert rows[0].startswith("delta,satisfaction_rate")
    assert len(rows) == 3
    assert (outdir / "delta_0.4" / "summary.json").exists()
    assert (outdir / "delta_0.2" / "summary.json").exists()


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["trials", "--definitely-not-a-flag", "1"])
    assert exc.value.code == 2
    # missing required option detected after parsing
    assert run(["trials", "--trials", "2", "--seed", "1", "--output-dir", tmp_path]) == 2


def test_data_errors_exit_3(tmp_path):
    code = run([
        "trials", *RUN, "--pool", tmp_path / "missing.jsonl",
        "--trials", "2", "--seed", "1", "--output-dir", tmp_path / "out",
    ])
    assert code == 3
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format":"nope"}\n')
    code = run([
        "evaluate", "--data", bad, "--lambda", "0.5", "--risk", "average", "--loss", "fnr",
    ])
    assert code == 3


def test_evaluate_rejects_non_number_scores(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":1,"seed":null,"params":null}\n'
        '{"scores":[true,"0.5",0.2],"truth":[0]}\n'
    )
    code = run([
        "evaluate", "--data", bad, "--lambda", "0.5", "--risk", "average", "--loss", "fnr",
        "--output", tmp_path / "evaluate.json",
    ])
    assert code == 3
    assert not (tmp_path / "evaluate.json").exists()


def test_evaluate_non_object_row_is_data_error(tmp_path, capsys):
    # row.get once raised AttributeError: a traceback and exit 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"format":"oce-rcps-dataset","version":1,"m":2,"count":1,"seed":null,"params":null}\n'
        "[1,2]\n"
    )
    code = run(["evaluate", "--data", bad, "--lambda", "0.5", "--risk", "average", "--loss", "fnr"])
    assert code == 3
    assert "line 2: row needs scores and truth arrays" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("evaluate", ["--lambda", "0.5", "--risk", "average", "--loss", "fnr", "--output", "out.json"]),
    ("calibrate", [*RUN, "--opt-size", "1", "--cal-size", "1", "--output-dir", "out"]),
])
def test_header_that_is_not_json_is_data_error(tmp_path, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(tmp_path)  # the relative output path would land here
    Path("bad.jsonl").write_text('{"format": oce-rcps-dataset}\n{"scores":[0.5],"truth":[0]}\n')
    assert run([command, "--data", "bad.jsonl", *flags]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: line 1: bad header")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_data_that_is_a_directory_is_data_error(tmp_path, capsys):
    code = run(["evaluate", "--data", tmp_path, "--lambda", "0.5", "--risk", "average",
                "--loss", "fnr"])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_evaluate_output_that_is_a_directory_is_data_error(dataset_path, tmp_path, capsys):
    code = run(["evaluate", "--data", dataset_path, "--lambda", "0.5", "--risk", "average",
                "--loss", "fnr", "--output", tmp_path])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_calibrate_output_dir_that_is_a_file_is_data_error(dataset_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run(["calibrate", *RUN, "--data", dataset_path, "--opt-size", "30",
                "--cal-size", "100", "--output-dir", taken])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_trials_output_dir_that_is_a_file_fails_before_the_run(
    dataset_path, tmp_path, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("run_trials ran before the output directory was made")

    monkeypatch.setattr(cli, "run_trials", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run(["trials", *RUN, "--pool", dataset_path, *POOL[2:], "--trials", "2",
                "--seed", "1", "--output-dir", taken])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_evaluate_lambda_is_one_name(dataset_path, tmp_path, capsys):
    base = ["evaluate", "--data", dataset_path, "--risk", "cvar:0.8", "--loss", "fnr"]
    from_flag, from_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert run([*base, "--lambda", "0.5", "--output", from_flag]) == 0
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"lambda": 0.5}))
    assert run([*base, "--config", conf, "--output", from_config]) == 0
    assert from_flag.read_bytes() == from_config.read_bytes()
    conf.write_text(json.dumps({"lam": 0.5}))
    assert run([*base, "--config", conf]) == 2
    assert "unknown config keys: ['lam']" in capsys.readouterr().err
    assert run(base) == 2
    assert "missing required option --lambda" in capsys.readouterr().err


SCIPY_FREE = """
import json, sys
import oce_rcps
assert "scipy" not in sys.modules, "import oce_rcps"
assert "concurrent.futures.process" not in sys.modules, "import oce_rcps"
from oce_rcps.cli import run_cli
for argv in json.loads(sys.argv[1]):
    assert run_cli(argv) == 0, argv[0]
    assert "scipy" not in sys.modules, argv[0]
    assert "concurrent.futures.process" not in sys.modules, argv[0]
"""


def test_reading_commands_never_import_scipy(dataset_path, tmp_path):
    # scipy is for generation only; calibrate, evaluate and trials --pool
    # read their data and skip its import. Nor does a run with one job load
    # the worker pool's modules.
    data = str(dataset_path)
    commands = [
        ["calibrate", *RUN, "--data", data, "--opt-size", "30", "--cal-size", "100",
         "--output-dir", str(tmp_path / "cal")],
        ["evaluate", "--data", data, "--lambda", "0.5", "--risk", "cvar:0.8", "--loss", "fnr",
         "--output", str(tmp_path / "evaluate.json")],
        ["trials", *RUN, "--pool", data, *POOL[2:], "--trials", "2", "--seed", "1",
         "--output-dir", str(tmp_path / "trials")],
    ]
    env = dict(os.environ)
    src = str(Path(oce_rcps.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trials" / "trials.csv").exists()


def test_config_file_equivalence(dataset_path, tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "method": "oce-rcps", "risk": "cvar:0.8", "loss": "fnr",
        "alpha": 0.4, "delta": 0.2, "grid": 20,
        "pool": str(dataset_path), "opt_size": 30, "cal_size": 100,
        "test_size": 70, "trials": 4, "seed": 7,
    }))
    a, b = tmp_path / "from_flags", tmp_path / "from_config"
    assert run([
        "trials", *RUN, "--pool", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--test-size", "70",
        "--trials", "4", "--seed", "7", "--no-timestamp", "--output-dir", a,
    ]) == 0
    assert run(["trials", "--config", conf, "--no-timestamp", "--output-dir", b]) == 0
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
    # flag overrides config
    c = tmp_path / "override"
    assert run([
        "trials", "--config", conf, "--trials", "2", "--no-timestamp", "--output-dir", c,
    ]) == 0
    assert json.loads((c / "summary.json").read_text())["trials"] == 2


def test_config_unknown_key_rejected(tmp_path):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"alpa": 0.4}))
    assert run(["trials", "--config", conf]) == 2


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config"),  # no file
    ("{", "cannot read config"),
    ("[1]", "must hold a JSON object"),
])
def test_unreadable_config_is_usage_error(tmp_path, capsys, text, message):
    conf = tmp_path / "run.json"
    if text is not None:
        conf.write_text(text)
    assert run(["trials", "--config", conf, "--output-dir", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_store_true_key(dataset_path, tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"no_timestamp": True}))
    outdir = tmp_path / "trials"
    assert run(["trials", "--config", conf, *RUN, "--pool", dataset_path, *POOL[2:],
                "--trials", "2", "--seed", "7", "--output-dir", outdir]) == 0
    assert "timestamp" not in json.loads((outdir / "summary.json").read_text())
    # a store-true key takes true or false, not the text argparse never sees
    conf.write_text(json.dumps({"strict": "yes"}))
    assert run(["calibrate", "--config", conf, *RUN, "--data", dataset_path,
                "--opt-size", "30", "--cal-size", "100", "--output-dir", tmp_path / "cal"]) == 2
    assert "strict: expected true or false" in capsys.readouterr().err
    assert not (tmp_path / "cal").exists()


@pytest.mark.parametrize("key, value", [
    ("method", "bogus"),
    ("loss", "bogus"),
    ("bound", "bogus"),
    ("vary", "bogus"),
    ("grid", "abc"),
    ("grid", 20.5),
    ("alpha", "abc"),
    ("alpha", True),
    ("values", "0.2,abc"),  # each --values entry is parsed as the --vary flag's value
])
def test_config_values_checked_like_flags(dataset_path, tmp_path, key, value):
    conf = {
        "vary": "delta", "values": "0.2", "method": "oce-rcps", "risk": "cvar:0.8",
        "loss": "fnr", "alpha": 0.4, "delta": 0.2, "grid": 20, "pool": str(dataset_path),
        "opt_size": 30, "cal_size": 100, "test_size": 70, "trials": 2, "seed": 7,
    }
    conf[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(conf))
    assert run(["sweep", "--config", path, "--output-dir", tmp_path / "out"]) == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "0"],
    ["generate", "--m", "0"],
    ["generate", "--rho", "1.5"],
    ["generate", "--difficulty-a", "nan"],
    ["trials", *RUN, *POOL[2:], "--trials", "2", "--m", "0"],
    ["trials", *RUN, *POOL[2:], "--trials", "2", "--pool-size", "0"],
    # valid flags whose Beta shapes betaincinv cannot invert
    ["generate", "--sharpness", "1e300"],
    ["generate", "--difficulty-a", "1e300"],
    ["trials", *RUN, *POOL[2:], "--trials", "2", "--pool-size", "5", "--sharpness", "1e300"],
    ["trials", *RUN, *POOL[2:], "--trials", "2", "--pool-size", "5", "--difficulty-a", "1e300"],
    # a valid rho so small that no membership draw is ever positive
    ["generate", "--m", "5", "--rho", "1e-300"],
    ["trials", *RUN, *POOL[2:], "--trials", "2", "--pool-size", "5", "--m", "5", "--rho", "1e-300"],
])
def test_bad_generator_flags_are_usage_errors(tmp_path, argv):
    defaults = {"generate": ["--count", "5", "--seed", "1", "--output", tmp_path / "d.jsonl"],
                "trials": ["--seed", "1", "--output-dir", tmp_path / "out"]}[argv[0]]
    assert run([argv[0], *defaults, *argv[1:]]) == 2  # the last value of a flag wins
    assert not any(tmp_path.iterdir())


def test_calibrate_config_method_checked(dataset_path, tmp_path):
    # a bad method used to run OCE-RCPS and write the bad name into calibration.json
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"method": "bogus"}))
    code = run([
        "calibrate", "--config", conf, "--risk", "cvar:0.8", "--loss", "fnr",
        "--alpha", "0.4", "--delta", "0.2", "--grid", "20", "--data", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--output-dir", tmp_path / "out",
    ])
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_sweep_checks_every_value_before_running(dataset_path, tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = run([
        "sweep", "--vary", "alpha", "--values", "0.4,inf", *RUN, "--pool", dataset_path,
        *POOL[2:], "--trials", "2", "--seed", "7", "--output-dir", outdir,
    ])
    assert code == 2
    assert "alpha must be a finite number >= 0" in capsys.readouterr().err
    assert not (outdir / "alpha_0.4").exists()


@pytest.mark.parametrize("command", ["trials", "sweep"])
def test_bad_delta_reported_before_pool_is_read(tmp_path, capsys, command):
    sweep = ["--vary", "delta", "--values", "0.2,1.5"] if command == "sweep" else []
    code = run([
        command, *sweep, *RUN, "--delta", "1.5", "--pool", tmp_path / "missing.jsonl",
        "--trials", "2", "--seed", "7", "--output-dir", tmp_path / "out",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "delta must lie in (0, 1)" in err and "missing.jsonl" not in err


@pytest.mark.parametrize("command", ["trials", "sweep"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_nonpositive_trials_is_usage_error(dataset_path, tmp_path, command, trials):
    sweep = ["--vary", "delta", "--values", "0.2"] if command == "sweep" else []
    code = run([
        command, *sweep, *RUN, "--pool", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--test-size", "70",
        "--trials", trials, "--seed", "7", "--output-dir", tmp_path / "out",
    ])
    assert code == 2


def test_evaluate_empty_truth_relative_size(tmp_path, capsys):
    # an empty truth set counts as size 1: the relative size is the set size
    data = tmp_path / "empty_truth.jsonl"
    data.write_text(
        '{"format":"oce-rcps-dataset","version":1,"m":3,"count":2}\n'
        '{"scores":[0.9,0.6,0.1],"truth":[]}\n'
        '{"scores":[0.9,0.6,0.1],"truth":[0,1]}\n'
    )
    base = ["evaluate", "--data", data, "--lambda", "0.5", "--risk", "average"]
    assert run([*base, "--loss", "miscoverage"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["test_oce_risk"] == 0.0
    assert payload["mean_rel_size"] == 1.5
    assert run([*base, "--loss", "fnr"]) == 3


@pytest.mark.parametrize("method", [
    ["--method", "rcps", "--risk", "average"],
    ["--method", "oce-rcps", "--risk", "cvar:0.5", "--t-mode", "fixed:0"],
])
def test_calibrate_fnr_empty_truth_past_the_first_chunk_is_data_error(tmp_path, method):
    # every loss is 0, so the walk reads only the first 32 calibration rows;
    # the one empty truth set lands after them and is still rejected
    n, empty = 100, 7
    lines = ['{"format":"oce-rcps-dataset","version":1,"m":3,"count":%d}\n' % n]
    lines += ['{"scores":[1,0.2,0.1],"truth":[%s]}\n' % ("" if i == empty else "0") for i in range(n)]
    data = tmp_path / "late_empty_truth.jsonl"
    data.write_text("".join(lines))
    seed = next(s for s in range(100)
                if list(datagen.split_dataset(read_dataset_path(data), datagen.SplitSpec(0, n, 0), s)[1]
                        .truth.any(axis=1)).index(False) >= 32)
    base = ["calibrate", *method, "--alpha", "0.4", "--delta", "0.2", "--grid", "100", "--data", data,
            "--opt-size", "0", "--cal-size", n, "--seed", seed, "--output-dir", tmp_path / "out"]
    assert run([*base, "--loss", "fnr"]) == 3
    assert run([*base, "--loss", "miscoverage"]) == 0


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"],
    ["--lambda", "1.5"],
    ["--lambda", "-0.1"],
    ["--lambda", "0.9", "--alpha", "nan"],
    ["--lambda", "0.9", "--alpha", "-0.1"],
    ["--lambda", "0.9", "--alpha", "inf"],
])
def test_evaluate_range_checked(dataset_path, capsys, flags):
    code = run(["evaluate", "--data", dataset_path, "--risk", "average", "--loss", "fnr", *flags])
    assert code == 2
    assert capsys.readouterr().out == ""


def t_mode_runs(data):
    """Every command that takes --t-mode, with its data and split flags."""
    return {
        "calibrate": ["--data", data, "--opt-size", "30", "--cal-size", "100"],
        "trials": ["--pool", data, *POOL[2:], "--trials", "2"],
        "sweep": ["--vary", "delta", "--values", "0.2", "--pool", data, *POOL[2:], "--trials", "2"],
    }


def test_unknown_t_mode_is_usage_error(dataset_path, tmp_path, capsys):
    runs = t_mode_runs(dataset_path).items()
    for (command, flags), t_mode in itertools.product(runs, ("bogus", "closed-form")):
        code = run([command, *RUN, "--t-mode", t_mode, *flags, "--output-dir", tmp_path / "out"])
        assert code == 2
        assert f"bad t-mode: {t_mode!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "t_mode",
    ["fixed:nan", "fixed:inf", "fixed:-inf", "fixed:abc", "fixed:1.5", "fixed:-0.1", "fixed:"],
)
def test_fixed_t_must_be_finite(dataset_path, tmp_path, t_mode):
    # t lies in [0, 1] for every method and command, not only where the bound checks it
    runs = t_mode_runs(dataset_path).items()
    for (command, flags), method in itertools.product(runs, ("oce-crc", "oce-rcps")):
        code = run([
            command, "--method", method, "--risk", "cvar:0.8", "--loss", "fnr",
            "--alpha", "0.4", "--delta", "0.2", "--grid", "20", "--t-mode", t_mode,
            *flags, "--output-dir", tmp_path / "out",
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_oce_crc_with_a_bound_method_is_usage_error(dataset_path, tmp_path, capsys, via):
    # oce-crc bounds nothing, so the echoed bound would name a setting that
    # never took effect
    for command, flags in t_mode_runs(dataset_path).items():
        argv = [command, "--method", "oce-crc", *RUN[2:], *flags, "--output-dir", tmp_path / "out"]
        if via == "flag":
            argv += ["--bound", "hoeffding"]
        else:
            (tmp_path / "config.json").write_text('{"bound": "hoeffding"}')
            argv += ["--config", tmp_path / "config.json"]
        assert run(argv) == 2, command
        assert "method oce-crc takes no bound method 'hoeffding'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_rcps_with_a_fixed_t_is_usage_error(dataset_path, tmp_path, capsys, via):
    # rcps runs at t = 0 whatever --t-mode says, so the echoed t_mode
    # would name a setting that never took effect
    for command, flags in t_mode_runs(dataset_path).items():
        argv = [command, "--method", "rcps", "--risk", "average", "--loss", "fnr",
                "--alpha", "0.4", "--delta", "0.2", "--grid", "20", *flags,
                "--output-dir", tmp_path / "out"]
        if via == "flag":
            argv += ["--t-mode", "fixed:0.5"]
        else:
            (tmp_path / "config.json").write_text('{"t_mode": "fixed:0.5"}')
            argv += ["--config", tmp_path / "config.json"]
        assert run(argv) == 2, command
        assert "method rcps takes no fixed t" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_entropic_overflow_is_data_error(dataset_path, tmp_path, capsys):
    code = run([
        "calibrate", "--method", "oce-rcps", "--risk", "entropic:800", "--loss", "fnr",
        "--alpha", "0.4", "--delta", "0.2", "--grid", "20", "--data", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--output-dir", tmp_path / "out",
    ])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: entropic cost overflow")
    # evaluate shifts by the largest loss, so the same beta works there
    assert run([
        "evaluate", "--data", dataset_path, "--lambda", "0.9",
        "--risk", "entropic:800", "--loss", "fnr",
    ]) == 0


@pytest.mark.parametrize("command,flag", [
    ("trials", "--opt-size"), ("sweep", "--test-size"), ("calibrate", "--cal-size"),
])
def test_negative_split_size_is_usage_error(dataset_path, tmp_path, capsys, command, flag):
    args = {
        "calibrate": ["--data", dataset_path, "--opt-size", "30", "--cal-size", "100"],
        "trials": ["--pool", dataset_path, *POOL[2:], "--trials", "2"],
        "sweep": ["--vary", "delta", "--values", "0.2", "--pool", dataset_path, *POOL[2:],
                  "--trials", "2"],
    }[command]
    code = run([command, *RUN, *args, flag, "-1", "--output-dir", tmp_path / "out"])
    assert code == 2
    assert "split sizes must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,extra", [
    ("calibrate", "--cal-size", []), ("trials", "--cal-size", []), ("sweep", "--cal-size", []),
    ("trials", "--test-size", []), ("sweep", "--test-size", []),
    ("calibrate", "--opt-size", []), ("trials", "--opt-size", ["--method", "oce-crc"]),
    ("sweep", "--opt-size", []),
])
def test_zero_split_size_is_usage_error(tmp_path, capsys, command, flag, extra):
    # rejected before the (missing) data file is read
    missing = tmp_path / "missing.jsonl"
    args = {
        "calibrate": ["--data", missing, "--opt-size", "30", "--cal-size", "100"],
        "trials": ["--pool", missing, *POOL[2:], "--trials", "2", "--seed", "7"],
        "sweep": ["--vary", "delta", "--values", "0.2", "--pool", missing, *POOL[2:],
                  "--trials", "2", "--seed", "7"],
    }[command]
    code = run([command, *RUN, *extra, *args, flag, "0", "--output-dir", tmp_path / "out"])
    assert code == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [["--method", "rcps"], ["--t-mode", "fixed:0.3"]])
def test_zero_opt_size_without_per_lambda_t(dataset_path, tmp_path, extra):
    # rcps and a fixed t never read the held-out split
    code = run([
        "calibrate", *RUN, *extra, "--data", dataset_path, "--opt-size", "0",
        "--cal-size", "100", "--output-dir", tmp_path / "out",
    ])
    assert code == 0


@pytest.mark.parametrize("command", ["calibrate", "trials", "evaluate"])
def test_infinite_entropic_beta_is_usage_error(dataset_path, tmp_path, capsys, command):
    # an infinite beta used to give NaN for t, the risk and the bounds
    args = {
        "calibrate": [*RUN, "--method", "oce-crc", "--data", dataset_path,
                      "--opt-size", "30", "--cal-size", "100", "--output-dir", tmp_path / "out"],
        "trials": [*RUN, "--pool", dataset_path, *POOL[2:], "--trials", "2", "--seed", "7",
                   "--output-dir", tmp_path / "out"],
        "evaluate": ["--data", dataset_path, "--lambda", "0.9", "--loss", "fnr"],
    }[command]
    assert run([command, *args, "--risk", "entropic:inf"]) == 2
    captured = capsys.readouterr()
    assert "finite beta > 0" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_sweep_values_listing_nothing_is_usage_error(tmp_path, capsys):
    code = run(["sweep", "--vary", "alpha", "--values", ",", *RUN,
                "--pool", tmp_path / "missing.jsonl", "--trials", "2", "--seed", "7",
                "--output-dir", tmp_path / "sweep"])
    assert code == 2
    assert "--values must list at least one number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("values", ["0.3,0.4,0.3", "0.2,0.20", "-0,0"])
def test_sweep_values_sharing_a_directory_are_usage_errors(tmp_path, capsys, values):
    # judged by value, so -0 and 0, spelled alpha_-0 and alpha_0, are one
    # number too: that list once ran one alpha twice
    outdir = tmp_path / "sweep"
    code = run([
        "sweep", "--vary", "alpha", f"--values={values}", *RUN,
        "--pool", tmp_path / "missing.jsonl",  # rejected before the pool is read
        "--trials", "2", "--seed", "7", "--output-dir", outdir,
    ])
    assert code == 2
    assert "--values must not list one number twice" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_values_close_together_run_apart(dataset_path, tmp_path):
    # a directory spells its value in full, so values that agree to six
    # significant digits still get a directory each
    outdir = tmp_path / "sweep"
    code = run([
        "sweep", "--vary", "alpha", "--values", "0.4000001,0.4000004", *RUN,
        "--pool", dataset_path, *POOL[2:], "--trials", "2", "--seed", "7", "--output-dir", outdir,
    ])
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "alpha_0.4000001", "alpha_0.4000004", "sweep_summary.csv"]
    rows = (outdir / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.4000001", "0.4000004"]


# ---------------------------------------------------------------- exit-code contract

# flag values at the edges of what the parsers take; sizes that would ask
# for a long run (a 20-digit --count, --trials, --grid, --m or --jobs) are
# valid requests and are never drawn
EDGES = ("nan", "inf", "-inf", "-0", "1e308", "5e-324", "1e-300", "12345678901234567890", "text", "")
SMALL_EDGES = tuple(v for v in EDGES if v != "12345678901234567890")
RISK_SPECS = (
    "average", "average:1", "cvar", "cvar:", "cvar:nan", "cvar:-0", "cvar:1", "cvar:5e-324",
    "cvar:0.9999999999999999", "cvar:1e-300", "entropic:nan", "entropic:inf", "entropic:-0",
    "entropic:1e308", "entropic:5e-324", "entropic:1e-300", "entropic:text", "bogus:1",
)
T_MODES = ("per-lambda", "closed-form", "fixed:nan", "fixed:-0", "fixed:1e308", "fixed:5e-324", "fixed:")
# "pool.jsonl" is a file, also as an output directory; "" names no file
PATHS = ("missing", "directory", "pool.jsonl", "")
SIZES = {"--count", "--trials", "--grid", "--m", "--jobs"}
# sweep values that agree to six digits, an empty entry, none, and a signed zero
SWEEP_VALUES = ("0.3,0.3000001", "0.2,", ",", "nan", "-0,0")
CHOICES = {"--method": ("rcps", "oce-crc", "bogus"), "--loss": ("miscoverage", "bogus"),
           "--bound": ("hoeffding", "bogus"), "--risk": RISK_SPECS, "--t-mode": T_MODES,
           "--vary": ("alpha", "bogus"), "--values": SWEEP_VALUES}

RUN_FLAGS = {
    "--method": "oce-rcps", "--risk": "cvar:0.8", "--loss": "fnr", "--alpha": "0.4",
    "--delta": "0.2", "--grid": "20", "--bound": "wsr", "--t-mode": "per-lambda",
}
BASES = {
    "generate": {"--m": "5", "--rho": "0.3", "--difficulty-a": "2", "--difficulty-b": "2",
                 "--sharpness": "8", "--count": "6", "--seed": "1", "--output": "out.jsonl"},
    "calibrate": {**RUN_FLAGS, "--data": "pool.jsonl", "--opt-size": "10", "--cal-size": "30",
                  "--seed": "3", "--output-dir": "cal"},
    "evaluate": {"--data": "pool.jsonl", "--lambda": "0.9", "--risk": "cvar:0.8", "--loss": "fnr",
                 "--alpha": "0.4", "--output": "eval.json"},
    "trials": {**RUN_FLAGS, "--pool": "pool.jsonl", "--opt-size": "10", "--cal-size": "30",
               "--test-size": "20", "--trials": "3", "--seed": "1", "--jobs": "1",
               "--output-dir": "trials"},
}
BASES["sweep"] = {**BASES["trials"], "--vary": "delta", "--values": "0.2,0.3"}
PATH_FLAGS = {"--output", "--data", "--output-dir", "--pool"}
JUNK_LINES = ("", "{", "null", "[]", '{"scores": [NaN], "truth": []}', '{"scores": [], "truth": [0]}',
              '{"scores": "0.5", "truth": []}', '{"scores": [1e400], "truth": [0]}')


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "pool.jsonl"
    assert run(["generate", "--m", "6", "--count", "60", "--seed", "2", "--output", path]) == 0
    return path.read_text().splitlines(keepends=True)


@st.composite
def contract_calls(draw):
    """A valid command with up to two flags set to edge values, on the
    command line or through --config, and maybe a few corrupted pool lines."""
    command = draw(st.sampled_from(sorted(BASES)))
    flags = dict(BASES[command])
    config = {}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        if flag in PATH_FLAGS:
            value = draw(st.sampled_from(PATHS))
        else:
            value = draw(st.sampled_from(
                CHOICES.get(flag, ()) + (SMALL_EDGES if flag in SIZES else EDGES)))
        if draw(st.booleans()):
            flags[flag] = value
        else:
            del flags[flag]
            config[flag[2:].replace("-", "_")] = draw(st.sampled_from(config_values(value)))
    corrupt = draw(st.one_of(st.just([]), st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from(JUNK_LINES)), min_size=1, max_size=3)))
    return command, flags, config, corrupt


def config_values(text):
    """The config-file spellings of a flag value: its text, and its number."""
    for parse in (int, float):
        try:
            return (text, parse(text))
        except ValueError:
            pass
    return (text,)


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=contract_calls())
@example(call=("generate", {**BASES["generate"], "--rho": "1e-300"}, {}, []))  # once a traceback
def test_exit_codes_hold_for_edge_inputs(small_pool, call):
    command, flags, config, corrupt = call
    lines = list(small_pool)
    for at, junk in corrupt:
        lines[at % len(lines)] = junk + "\n"
    argv = [command, *(item for pair in flags.items() for item in pair)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative output paths, drawn text among them, land here
        try:
            Path("pool.jsonl").write_text("".join(lines))
            Path("directory").mkdir()
            if config:
                Path("config.json").write_text(json.dumps(config))
                argv += ["--config", "config.json"]
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = run_cli(argv)
            except SystemExit as e:  # argparse rejects a flag's text
                assert e.code == 2
                code = 2
            assert code in (0, 1, 2, 3)
            for path in Path(tmp).rglob("*.json"):
                if path.name != "config.json":
                    strict_json(path.read_text())
            if Path("out.jsonl").is_file():  # what generate wrote
                for line in Path("out.jsonl").read_text().splitlines():
                    strict_json(line)
            if code == 0 and command == "evaluate" and out.getvalue():
                strict_json(out.getvalue())
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------- empty paths

EMPTY_PATH_CASES = [
    ("generate", "--output"), ("calibrate", "--data"), ("calibrate", "--output-dir"),
    ("evaluate", "--data"), ("evaluate", "--output"), ("trials", "--pool"),
    ("trials", "--output-dir"), ("sweep", "--pool"), ("sweep", "--output-dir"),
]


def base_flags(command):
    if command == "sweep":
        return {**BASES["trials"], "--vary": "delta", "--values": "0.2"}
    return dict(BASES[command])


def run_in(small_pool, command, flags, config):
    """Run `command` in the working directory, which gets the pool and, when
    given, the config file; -> (exit code, the files the run added)."""
    Path("pool.jsonl").write_text("".join(small_pool))
    argv = [command, *(item for pair in flags.items() for item in pair)]
    if config is not None:
        Path("config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    before = set(Path().iterdir())
    code = run_cli(argv)
    return code, set(Path().iterdir()) - before


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, flag", EMPTY_PATH_CASES)
def test_empty_path_fails_like_a_missing_one(small_pool, tmp_path, monkeypatch, capsys,
                                             command, flag, via):
    # "" is not the working directory: Path("") would read as "."
    monkeypatch.chdir(tmp_path)
    if command != "generate":  # an empty --pool must not fall back to a generated pool
        monkeypatch.setattr(cli, "generate_dataset", lambda *a: pytest.fail("pool generated"))
    flags, config = base_flags(command), None
    if via == "flag":
        flags[flag] = ""
    else:
        del flags[flag]
        config = {flag[2:].replace("-", "_"): ""}
    code, added = run_in(small_pool, command, flags, config)
    assert code == 3
    assert "''" in capsys.readouterr().err
    assert added == set()


@pytest.mark.parametrize("command", ["generate", "calibrate", "evaluate", "trials", "sweep"])
def test_empty_config_path_is_usage_error(small_pool, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    flags = {**base_flags(command), "--config": ""}
    code, added = run_in(small_pool, command, flags, None)
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
    assert added == set()


# ---------------------------------------------------------------- alpha and delta

BAD_RUN_VALUES = [("alpha", v) for v in ("nan", "inf", "-0.1")] + [
    ("delta", v) for v in ("0", "1", "1.5", "nan")]
BAD_RUN_WAYS = [(command, via) for command in ("calibrate", "trials", "sweep")
                for via in ("flag", "config")] + [("sweep", "values")]


@pytest.mark.parametrize("command, via", BAD_RUN_WAYS)
@pytest.mark.parametrize("name, value", BAD_RUN_VALUES)
def test_bad_alpha_or_delta_is_usage_error(tmp_path, monkeypatch, capsys, command, via, name,
                                           value):
    # TrialConfig holds the alpha and delta rules, so a value no run takes
    # is a usage error however it is given, before any data is read
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_dataset_path", lambda path: pytest.fail(f"{path} read"))
    flags = base_flags(command)
    if command == "sweep":  # the swept setting is the other one, or the bad one itself
        other = "delta" if name == "alpha" else "alpha"
        flags.update({"--vary": name, "--values": f"0.3,{value}"} if via == "values"
                     else {"--vary": other, "--values": "0.3"})
    if via == "config":
        del flags[f"--{name}"]
        Path("config.json").write_text(json.dumps({name: value}))
        flags["--config"] = "config.json"
    elif via == "flag":
        flags[f"--{name}"] = value
    assert run_cli([command, *(item for pair in flags.items() for item in pair)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {name} must")
    # nothing is written, so no JSON file can hold an Infinity literal
    assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if via == "config" else [])


# ---------------------------------------------------------------- flag declarations

DESTS = {
    "generate": {"config", "m", "rho", "difficulty_a", "difficulty_b", "sharpness",
                 "output", "count", "seed"},
    "calibrate": {"config", "risk", "loss", "alpha", "method", "delta", "grid", "bound",
                  "t_mode", "opt_size", "cal_size", "output_dir", "data", "seed", "strict"},
    "evaluate": {"config", "risk", "loss", "alpha", "data", "output", "lambda"},
    "trials": {"config", "risk", "loss", "alpha", "method", "delta", "grid", "bound", "t_mode",
               "opt_size", "cal_size", "output_dir", "m", "rho", "difficulty_a", "difficulty_b",
               "sharpness", "pool", "pool_size", "pool_seed", "test_size", "trials", "seed",
               "jobs", "no_timestamp"},
}
DESTS["sweep"] = DESTS["trials"] | {"vary", "values"}


def cli_calls(name):
    """The first argument of every call to `name` in cli.py's source."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return [
        [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_each_shared_flag_is_declared_once():
    flags = [args[0] for args in cli_calls("add_argument")]
    repeated = {flag for flag in flags if flags.count(flag) > 1}
    assert repeated == {"--seed"}  # the generation, split or master seed: one per subcommand
    assert flags.count("--seed") == 3  # trials and sweep share the loop's declaration


def test_each_subcommand_keeps_its_flags():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction))
    assert {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()} == DESTS


@pytest.mark.parametrize("command", sorted(DESTS))
def test_help_lists_config_first(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, "--help"])
    assert exit_info.value.code == 0
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  -")]
    assert options[:2] == ["-h,", "--config"]


def test_no_required_option_has_a_default():
    names = {name for args in cli_calls("_require") for name in args}
    assert names and not names & set(cli.DEFAULTS)


def test_generate_seed_defaults_to_zero(capsys):
    assert run(["generate", "--m", "4", "--count", "2", "--output", "-"]) == 0
    unseeded = capsys.readouterr().out
    assert run(["generate", "--m", "4", "--count", "2", "--seed", "0", "--output", "-"]) == 0
    assert capsys.readouterr().out == unseeded


def calibrate_in(dataset_path, outdir, *flags):
    return run(["calibrate", *RUN, "--data", dataset_path, "--opt-size", "30",
                "--cal-size", "100", "--seed", "3", "--output-dir", outdir, *flags])


def test_calibration_run_keys_come_from_the_config_echo(dataset_path, tmp_path, monkeypatch):
    echo = cli.TrialConfig.echo
    monkeypatch.setattr(cli.TrialConfig, "echo", lambda self: {k: f"<{k}>" for k in echo(self)})
    assert calibrate_in(dataset_path, tmp_path / "cal") == 0
    payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    assert list(payload) == ["lambda_hat", "feasible", "t_by_lambda", "method", "risk", "loss",
                             "alpha", "delta", "grid", "toolkit_version"]
    assert all(payload[k] == f"<{k}>" for k in ("method", "risk", "loss", "alpha", "delta", "grid"))


def test_t_mode_takes_one_spelling_per_mode(dataset_path, tmp_path, capsys):
    assert calibrate_in(dataset_path, tmp_path / "default") == 0
    assert calibrate_in(dataset_path, tmp_path / "per", "--t-mode", "per-lambda") == 0
    for name in ("calibration.json", "trace.csv"):
        assert (tmp_path / "per" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    assert calibrate_in(dataset_path, tmp_path / "fixed", "--t-mode", "fixed:0.5") == 0
    fixed = json.loads((tmp_path / "fixed" / "calibration.json").read_text())
    assert set(fixed["t_by_lambda"].values()) == {0.5}
    capsys.readouterr()
    assert calibrate_in(dataset_path, tmp_path / "alias", "--t-mode", "closed-form") == 2
    assert "bad t-mode: 'closed-form' (per-lambda | fixed:VALUE)" in capsys.readouterr().err
    assert not (tmp_path / "alias").exists()


# ---------------------------------------------------------------- allocations

# each array needs 7.1 PiB, past any 64-bit address space, so numpy fails
# before it maps any memory
@pytest.mark.parametrize("argv", [
    ["generate", "--count", "10000000000000", "--seed", "1", "--output", "x.jsonl"],
    ["calibrate", *RUN, "--grid", "1000000000000000", "--data", "pool.jsonl",
     "--opt-size", "10", "--cal-size", "30", "--output-dir", "cal"],
])
def test_an_allocation_too_large_is_a_data_error(small_pool, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("pool.jsonl").write_text("".join(small_pool))
    assert run_cli(argv) == 3
    assert "data error: Unable to allocate 7.11 PiB" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} == {"pool.jsonl"}


# ---------------------------------------------------------------- diagnostics

def test_oce_rcps_log_sets_the_diagnostics_only(dataset_path, tmp_path):
    # a fresh process each: inside pytest the root logger already has
    # handlers, so logging.basicConfig would change nothing
    src = Path(oce_rcps.__file__).resolve().parent.parent
    outputs = {}
    for level in (None, "bogus", "info", "debug"):
        env = {k: v for k, v in os.environ.items() if k != "OCE_RCPS_LOG"}
        env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
        if level is not None:
            env["OCE_RCPS_LOG"] = level
        outdir = tmp_path / str(level)
        proc = subprocess.run(
            [sys.executable, "-m", "oce_rcps.cli", "trials", *RUN, "--pool", str(dataset_path),
             *POOL[2:], "--trials", "1", "--seed", "7", "--no-timestamp", "--output-dir",
             str(outdir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        if level in ("info", "debug"):
            # one trial gives the KDE one value, so both fall back to raw values
            assert "INFO satisfaction_rate=" in proc.stderr
            for name in ("risk", "rel_size"):
                assert f"INFO kde for {name} unavailable (" in proc.stderr
        else:
            assert proc.stderr == ""
        outputs[level] = [(outdir / name).read_bytes() for name in ("trials.csv", "summary.json")]
    assert all(files == outputs[None] for files in outputs.values())
