"""Run one `oce-rcps` command with per-layer spans.

    python3 perfbench/child.py SPANS_JSON COMMAND [ARGS...]

Times the import of `oce_rcps.cli` (span `cli.import`), wraps the hooked
attributes, runs the command through `run_cli` and writes the span totals
to SPANS_JSON. Exits with the command's exit code. Trials that `trials
--jobs N` runs in worker processes are not traced; the span around
`run_trials` in this process covers them.
"""

import json
import sys
from time import perf_counter

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import oce_rcps.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.tag = argv[0] if argv else ""
    tracer.install()
    tracer.record("cli.import", import_s, import_s)
    code = oce_rcps.cli.run_cli(argv)
    with open(spans_out, "w", encoding="utf-8") as fp:
        json.dump(tracer.dump(), fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
