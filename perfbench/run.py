"""Benchmark for the oce-rcps toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the benchmark imports the package from
`./src` and starts `python3 -m oce_rcps.cli` from there. NAME is one of
mc-g100, mc-g1000, cli-session, or `all` to run the three in turn in one
process. --trace 0 measures the end-to-end metrics; --trace 1 wraps the
package's module attributes (see spans.py) and reports per-layer metrics
instead. Output checks run after the timed phase; any failed check,
raised trial or failed process counts in `failed`.

Times are wall-clock times scaled for host contention (see clock.py);
`report` lines give the raw figures, the sample counts and a SHA-256
fingerprint of the trial records, and the `facts` line the machine. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Timing uses only this process's clocks
and `getrusage`, so cache and scheduler effects are not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from pathlib import Path

E2E_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p95": "ms",
    "calibrate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us_per_call", "us"), ("_ms", "ms"), ("_per_s", "1/s"),
                         ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(root: Path) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "oce_rcps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "unmeasured": "cache and scheduler effects: only per-process clocks and getrusage are used",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oce_rcps" / "__init__.py").is_file():
        print(f"perfbench: no src/oce_rcps under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import oce_rcps

    if Path(oce_rcps.__file__).resolve().parent != (root / "src" / "oce_rcps").resolve():
        print(f"perfbench: imported oce_rcps from {oce_rcps.__file__}, not ./src", file=sys.stderr)
        return 2

    import workloads
    from spans import MOVES

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            metrics, ledger, report = workloads.run(name, args.seed, args.seconds, bool(args.trace), root)
        except Exception:
            traceback.print_exc()
            print(f"perfbench: workload {name} did not complete", file=sys.stderr)
            return 1
        attempted += ledger.attempted
        failed += ledger.failed
        print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for key, value in metrics.items():
            unit = E2E_UNITS.get(key) or layer_unit(key)
            moves = f"  (moves {MOVES[key]})" if key in MOVES else ""
            print(f"  {key} = {value} {unit}{moves}")
            combined[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
        print(f"  failed_frac = {ledger.failed / max(1, ledger.attempted)} "
              f"({ledger.failed}/{ledger.attempted})")
        report.update(workload=name, seed=args.seed, failures=ledger.failures[:20])
        print("report " + json.dumps(report, sort_keys=True))
    print("facts " + json.dumps(machine_facts(root), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
