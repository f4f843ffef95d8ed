"""``repro serve`` with the benchmark's call tracing installed.

Used by the traced ``serve-mixed`` run in place of ``python -m repro
serve``.  The wrappers are installed before the worker pool forks, so
the workers inherit them and write their totals next to the server's.

    python repobench/server_main.py --workers N --trace-dir DIR --run-id ID
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    from repro.service.server import run_server

    tracer = Tracer(Path(args.trace_dir), args.run_id)
    tracer.install()
    code = run_server("127.0.0.1", 0, workers=args.workers)
    (Path(args.trace_dir) / "server.json").write_text(
        json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
