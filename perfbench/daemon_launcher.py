"""Traced daemon launcher for the serving workloads' per-layer runs.

``python3 perfbench/daemon_launcher.py --trace-out PATH -- daemon SNAPSHOT
[options]`` wraps the layer entry points (``tracer.py``) and then runs the
``repro-spanner daemon`` verb itself (``repro.cli.main``), so it serves
through exactly the objects the untraced daemon builds.  The per-layer span
aggregates stay in memory while it serves; they are written to ``PATH`` once
the daemon has drained (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    common.require_sources()
    import tracer

    recorder = tracer.SpanRecorder()
    tracer.install(recorder)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    recorder.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
