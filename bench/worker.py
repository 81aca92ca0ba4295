"""One pass of a workload in this fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --pass K [--trace | --gate]

Imports curvepi (found through PYTHONPATH), makes the pass's inputs,
prints ``ready`` and then runs the pass's commands one at a time through
``curvepi.cli.main``.  ``--gate`` runs the workload's untimed correctness
gate instead of a pass.  The last line of standard output is a JSON object
with the command times, the operations attempted and failed, and the peak
resident memory; with ``--trace`` it also holds the spans' per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys

import curvepi.cli

import workloads
from calibration import Speedometer, to_reference
from tracing import Tracer, layer_metrics


class Client:
    """Sends one command at a time, captures its standard streams, times it
    and checks its output after the clock has stopped."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.speed = Speedometer()
        if tracer:
            self.speed.sample = tracer.wrap("calibration", self.speed.sample)
        self.commands = []  # (kind, seconds, reference seconds)
        self.attempted = 0
        self.errors = []

    def run(self, kind, argv, check, stdin=""):
        main = self.tracer.command(kind, curvepi.cli.main) if self.tracer else curvepi.cli.main

        def call():
            try:
                return main(argv), None
            except SystemExit as exc:
                return exc.code, None
            except Exception as exc:  # a crash fails this operation, not the benchmark
                return None, f"{type(exc).__name__}: {exc}"

        out = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                (rc, crash), seconds, round_s = self.speed.time(call)
        finally:
            sys.stdin = saved_stdin
        self.commands.append((kind, seconds, to_reference(seconds, round_s)))
        self.attempted += 1
        try:
            problem = crash or check(rc, out.getvalue())
        except Exception as exc:  # output the check cannot read is wrong output
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            self.errors.append(f"{' '.join(argv)[:60]}: {problem}")
        return out.getvalue()

    def result(self) -> dict:
        return {
            "commands": self.commands,
            "calibration_s": self.speed.initial,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:5],
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="k", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--gate", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    client = Client(tracer=tracer)
    print("ready", flush=True)

    if args.gate:
        workload.gate(client, args.seed)
    else:
        workload.run_pass(client, args.seed, args.k)
    result = client.result()
    result["max_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        scales = [ref / seconds for _, seconds, ref in result["commands"]]
        result["trace"] = layer_metrics(tracer.spans, scales)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
