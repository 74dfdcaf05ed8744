"""Traced gateway launcher.

    python3 guardbench/launcher.py SPAN_DIR serve --unix ... [serve args]

Installs the span wraps (:func:`spans.install_server_wraps`), then runs
the same CLI entry point as ``python -m repro``.  Workers are forked from
this process, so they inherit the wraps; each process writes its spans to
``SPAN_DIR`` when it exits.  SIGUSR1 records a counter mark.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPAN_DIR serve ...", file=sys.stderr)
        return 2
    span_dir, serve_argv = argv[0], argv[1:]
    if multiprocessing.get_start_method() != "fork":
        # Spawned workers would start from a fresh import, without wraps.
        print("traced launcher needs the fork start method", file=sys.stderr)
        return 2
    import spans
    from repro.cli import main as cli_main

    recorder = spans.SpanRecorder(span_dir, "gateway")
    spans.install_server_wraps(recorder)
    os.register_at_fork(after_in_child=recorder.forked)
    signal.signal(signal.SIGUSR1, recorder.mark)
    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
