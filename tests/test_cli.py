import json

import pytest

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


@pytest.mark.parametrize("key, value", [
    ("method", "bogus"),
    ("loss", "bogus"),
    ("bound", "bogus"),
    ("vary", "bogus"),
    ("grid", "abc"),
    ("grid", 20.5),
    ("alpha", "abc"),
    ("alpha", True),
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


def test_calibrate_nan_alpha_is_data_error(dataset_path, tmp_path):
    code = run([
        "calibrate", "--method", "oce-rcps", "--risk", "cvar:0.8", "--loss", "fnr",
        "--alpha", "nan", "--delta", "0.2", "--grid", "20", "--data", dataset_path,
        "--opt-size", "30", "--cal-size", "100", "--output-dir", tmp_path / "out",
    ])
    assert code == 3
    assert not (tmp_path / "out" / "calibration.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "trials", "sweep"])
def test_infinite_alpha_is_data_error(dataset_path, tmp_path, command):
    args = {
        "calibrate": ["--data", dataset_path, "--opt-size", "30", "--cal-size", "100"],
        "trials": ["--pool", dataset_path, *POOL[2:], "--trials", "2"],
        "sweep": ["--vary", "alpha", "--values", "inf", "--pool", dataset_path, *POOL[2:],
                  "--trials", "2"],
    }[command]
    code = run([command, *RUN, "--alpha", "inf", *args, "--output-dir", tmp_path / "out"])
    assert code == 3
    # JSON has no Infinity literal
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert not any("Infinity" in p.read_text() for p in written)


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


@pytest.mark.parametrize(
    "t_mode", ["fixed:nan", "fixed:inf", "fixed:-inf", "fixed:abc", "fixed:1.5", "fixed:-0.1"]
)
def test_fixed_t_must_be_finite(dataset_path, tmp_path, t_mode):
    # t lies in [0, 1] for every method, not only where the bound checks it
    for method in ("oce-crc", "oce-rcps"):
        code = run([
            "calibrate", "--method", method, "--risk", "cvar:0.8", "--loss", "fnr",
            "--alpha", "0.4", "--delta", "0.2", "--grid", "20", "--t-mode", t_mode,
            "--data", dataset_path, "--opt-size", "30", "--cal-size", "100",
            "--output-dir", tmp_path / "out",
        ])
        assert code == 2
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
