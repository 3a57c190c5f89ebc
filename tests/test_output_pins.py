"""SHA-256 pins on the bytes the CLI writes.

These files are the behaviour contract: the generated JSONL, `trials.csv`
and `summary.json` (with `--no-timestamp`), the KDE CSVs of a `trials`
run, `sweep_summary.csv`, `calibration.json`, `trace.csv`, and the JSON
from `evaluate`. A refactor must leave every digest here unchanged; a
pin moves only with a deliberate change to what the toolkit computes,
explained in CHANGES.md.

The digests were taken with Python 3.11, numpy 2.4.6 and scipy 1.17.1.
The generated scores come from `scipy.special.betaincinv`, so another
scipy (or numpy) release can move the generated bytes, and every pin
downstream of them, without any change here.

They are also taken on numpy's baseline x86-64 kernels. numpy picks its
float64 `exp`, `expm1` and `log` kernels by CPU at run time, and its AVX-512
kernels round some values differently from the others, which moves the
entropic pins. So the commands run in a child process with the AVX-512
dispatch groups disabled (`BASELINE_KERNELS`); those kernels run on every
x86-64 CPU, and the digests are the same with or without AVX-512. Run as a
script, this module writes the pinned files under the directory it is given
and prints their paths as JSON.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oce_rcps.cli import run_cli

# numpy 2.4's AVX-512 dispatch groups. On a CPU without them numpy's import
# gives an ImportWarning, which Python ignores by default
BASELINE_KERNELS = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# the warnings that the test session's filters make errors
ERRORS = ["RuntimeWarning", "ResourceWarning", "DeprecationWarning", "PendingDeprecationWarning", "FutureWarning"]

RUN = ["--loss", "fnr", "--alpha", "0.4", "--delta", "0.2"]
CALIBRATIONS = {
    "cal-oce-rcps": ["--method", "oce-rcps", "--risk", "cvar:0.9"],
    "cal-oce-crc": ["--method", "oce-crc", "--risk", "cvar:0.9"],
    "cal-hoeffding-fixed": [
        "--method", "oce-rcps", "--risk", "entropic:1",
        "--bound", "hoeffding", "--t-mode", "fixed:0.3",
    ],
    # long WSR traces (443 and 343 rows at G=1000) from the average and entropic costs
    "cal-rcps": ["--method", "rcps", "--risk", "average"],
    "cal-oce-rcps-entropic": ["--method", "oce-rcps", "--risk", "entropic:3"],
}
METHODS = ("oce-crc", "rcps", "oce-rcps")
# miscoverage runs: 0/1 losses, so the entropic risk tells the methods apart
MISS_RUN = ["--risk", "entropic:1", "--loss", "miscoverage", "--alpha", "0.4", "--delta", "0.2"]

PINS = {
    "generate.jsonl": "ae560485ca2b97435f418f4a8f900dc1a2f92a4ce2cf6dbb5f129bc0dbeb1c3a",
    "trials-oce-crc/trials.csv": "a61f44cf225437404de5419f59775c57737655548765c0368c5dde72906a24e1",
    "trials-oce-crc/summary.json": "a079dab249c1c40891ff608803fdddb91308c48e86f987020c3e5564b047b9df",
    "trials-rcps/trials.csv": "eb41c121740e2ef6eef49606cf696836920819232b2fca3e87aa2571b5a58766",
    "trials-rcps/summary.json": "24e486c91d8d5f4e11da220a00aae85891f4d05d906e30901124662ad28d05ac",
    "trials-oce-rcps/trials.csv": "58e48d89cc10239cd2d394c9330b06410542225d9ad97e626f9e71d80114e295",
    "trials-oce-rcps/summary.json": "0d8783b6d7b637cc4039f5a8611ab95298f827347e863bf0ba4d755a020cbaaf",
    "trials-oce-rcps/kde_risk.csv": "db8828cf02401d08dfc64cfbd7359f0966119c5581fc26e6ff90f80574692e50",
    "trials-oce-rcps/kde_rel_size.csv": "75baa513f651a03ab27f465e4581e7ebf530eeb95359399c11095a23fe94a146",
    "sweep/sweep_summary.csv": "941fd6284c554feed7c6e96989c87595ff795fee7c0bb8e57485a94a48916e6a",
    "cal-oce-rcps/calibration.json": "742a3284ff9a4c3087bb81dd3c72eb646e7a2a27f25d0e3f10906a89bb2a69e8",
    "cal-oce-rcps/trace.csv": "f07203658693b2cd7e26ab868135e468f775f64baa46671ca47470e6127a6c08",
    "cal-oce-crc/calibration.json": "5ae8f8fd0fb8f7b1923c2ddec083b6e03b0c5061a5fe6819cc6bfeab6a07d930",
    "cal-oce-crc/trace.csv": "c0111c7bd9852efbe7b780e11d118ecef77946244ec0df29e9e990ab65e3bbf3",
    "cal-hoeffding-fixed/calibration.json": "227d20cf01f95ee245814a8c1c95ae9ea8765984c846b177208a92193c6e123f",
    "cal-hoeffding-fixed/trace.csv": "2dbe9d01c8991579bbf3ade864075376f6fa9b1fc638db9166375fa9208704b0",
    "cal-rcps/calibration.json": "9cbd5db810c48fbc5776fb98013f3a31758bdc6fb6dfe0abcb862d35ed199592",
    "cal-rcps/trace.csv": "5c3060a9d989b7cb42634c3379d7a00586ff7509fad2c83ee27e0d5e248d06e5",
    "cal-oce-rcps-entropic/calibration.json": "18a6dc42319eaff4c29591b9531f6013b275b9ea8778b654b59429001a576d44",
    "cal-oce-rcps-entropic/trace.csv": "71bfd2bf4ea43ef54f08948729870d0dcdafde5d0e968e269f7196936c4ce7a4",
    "evaluate.json": "4a4c8a316519bf4b6c24eff36e1c0176b131545e10222048f648c631a899a60b",
    "trials-miss-oce-crc/trials.csv": "12ba3fee0b01cebb2e70335062d17d8959f01ba136991f62c4d740037bf72af9",
    "trials-miss-oce-crc/summary.json": "c2191729f41ecb0efd7ed7892c150967b215511534f9a7208cb34237f4181f79",
    "trials-miss-rcps/trials.csv": "357714ac59cbdc8339bf8050cffd8bf4e0cdbc1679c688a6aa2063659831500a",
    "trials-miss-rcps/summary.json": "5cf38ad46a3d6e365d113f4d577e096deeb71644b76829f5103be47a6a95ef88",
    "trials-miss-oce-rcps/trials.csv": "5e78562b468f3d3b0a9e53ef2ebf049dab7862c10cd0b19e73862481758dce78",
    "trials-miss-oce-rcps/summary.json": "ab39f833179cbfd11ab7c0f7b6352847835cffa6741e4844e6d5cad5ec302111",
    "cal-miss-oce-rcps/calibration.json": "17ae324b95ff8b7d7170582d5a4a38cbea154d175856cee33b785f7aa7dd975d",
    "cal-miss-oce-rcps/trace.csv": "674f42e7f6d803e034310ff6e9cf26755b9b7f60d4e3e1acecac6657164b0ca5",
    "evaluate-miss.json": "70a41ea5ba591edf794a28b1dde5bb8251a4766e8b7b1679719be6363f5a2e1b",
}


def _run(*args):
    assert run_cli([str(a) for a in args]) == 0


def produce(root):
    """Run the pinned commands under `root`; returns {pin name: path}."""
    pool = root / "pool.jsonl"
    _run("generate", "--count", 200, "--seed", 1, "--output", pool)
    out = {"generate.jsonl": pool}
    for method in METHODS:
        outdir = root / f"trials-{method}"
        _run(
            "trials", "--method", method, "--risk", "cvar:0.9", *RUN,
            "--grid", 100, "--pool", pool,
            "--opt-size", 40, "--cal-size", 100, "--test-size", 60,
            "--trials", 20, "--seed", 7, "--no-timestamp", "--output-dir", outdir,
        )
        out[f"trials-{method}/trials.csv"] = outdir / "trials.csv"
        out[f"trials-{method}/summary.json"] = outdir / "summary.json"
    for name in ("kde_risk.csv", "kde_rel_size.csv"):
        out[f"trials-oce-rcps/{name}"] = root / "trials-oce-rcps" / name
    outdir = root / "sweep"
    _run(
        "sweep", "--vary", "delta", "--values", "0.3,0.2",
        "--method", "oce-rcps", "--risk", "cvar:0.9", *RUN,
        "--grid", 100, "--pool", pool,
        "--opt-size", 40, "--cal-size", 100, "--test-size", 60,
        "--trials", 20, "--seed", 7, "--no-timestamp", "--output-dir", outdir,
    )
    out["sweep/sweep_summary.csv"] = outdir / "sweep_summary.csv"
    for method in METHODS:
        outdir = root / f"trials-miss-{method}"
        _run(
            "trials", "--method", method, *MISS_RUN,
            "--grid", 100, "--pool", pool,
            "--opt-size", 40, "--cal-size", 100, "--test-size", 60,
            "--trials", 20, "--seed", 7, "--no-timestamp", "--output-dir", outdir,
        )
        out[f"trials-miss-{method}/trials.csv"] = outdir / "trials.csv"
        out[f"trials-miss-{method}/summary.json"] = outdir / "summary.json"
    for name, flags in CALIBRATIONS.items():
        outdir = root / name
        _run(
            "calibrate", *flags, *RUN, "--data", pool,
            "--opt-size", 40, "--cal-size", 150, "--seed", 3, "--output-dir", outdir,
        )
        out[f"{name}/calibration.json"] = outdir / "calibration.json"
        out[f"{name}/trace.csv"] = outdir / "trace.csv"
    evaluate = root / "evaluate.json"
    _run(
        "evaluate", "--data", pool, "--lambda", 0.9, "--risk", "cvar:0.9",
        "--loss", "fnr", "--alpha", 0.4, "--output", evaluate,
    )
    out["evaluate.json"] = evaluate
    outdir = root / "cal-miss-oce-rcps"
    _run(
        "calibrate", "--method", "oce-rcps", *MISS_RUN, "--data", pool,
        "--opt-size", 40, "--cal-size", 150, "--seed", 3, "--output-dir", outdir,
    )
    out["cal-miss-oce-rcps/calibration.json"] = outdir / "calibration.json"
    out["cal-miss-oce-rcps/trace.csv"] = outdir / "trace.csv"
    evaluate = root / "evaluate-miss.json"
    _run("evaluate", "--data", pool, "--lambda", 0.9, *MISS_RUN[:4], "--output", evaluate)
    out["evaluate-miss.json"] = evaluate
    return out


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    # the child imports this module and the package from where this process does
    env = {**os.environ, **BASELINE_KERNELS, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, *(f"-Werror::{w}" for w in ERRORS), __file__, str(root)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    return root, {name: Path(p) for name, p in json.loads(child.stdout).items()}


@pytest.fixture(scope="module")
def digests(produced):
    _, paths = produced
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_pin(digests, name):
    assert digests[name] == PINS[name]


def test_every_kde_cell_is_a_float(produced):
    root, _ = produced
    files = sorted(root.rglob("kde_*.csv"))
    assert len(files) >= 2
    for path in files:
        header, *rows = path.read_text().splitlines()
        assert header == "x,density"
        for row in rows:
            x, density = row.split(",")
            assert math.isfinite(float(x)) and math.isfinite(float(density))


if __name__ == "__main__":
    print(json.dumps({name: str(p) for name, p in produce(Path(sys.argv[1])).items()}))
