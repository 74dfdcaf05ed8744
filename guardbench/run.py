"""End-to-end guard benchmark: the real gateway, driven over its socket.

    python3 guardbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every gateway is a separate
``python -m repro serve`` process (default two workers, a fragments file
extracted from the testbed sources, a fresh ``--state-dir``), driven over
its unix socket by this one client process with at most two connections.
The seeded traces come from ``workloads.py``; ``BENCHMARK.json`` names
the same workloads.

``--trace 0`` (end-to-end metrics): four bare set-ups, then one gateway
on which the serial, paced and peak phases take turns in ten rounds after
a warm-up; ``serial_p50_us``, ``paced_p50_us`` and ``peak_qps`` are the
medians of their per-round values, and the report lines give each
phase's whole p50/p90/p99/max.  ``setup_s`` is the median of the five
spawn-to-first-verdict times.

``--trace 1`` (per-layer metrics): a serial phase on a plain gateway, then
the same items on a gateway started through ``launcher.py``, which wraps
the program's public calls with spans; the waterfall is printed per
workload.  The in-process baseline times ``JozaEngine.inspect`` on the
same items.

Every verdict is checked against an in-process engine over the same
vocabulary (``oracle.py``): the ``safe`` flag and the flagging techniques
must match.  A mismatch prints the result with ``"correct": false`` and
exits 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("wpcom-mix", "sqli-attack")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="guardbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"guardbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # generate_variants seeds from hash(plugin name): pin string
        # hashing so one seed always yields one trace.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    os.chdir(ROOT)
    sys.path[:0] = [SRC, BENCH_DIR]
    from bench import run

    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
