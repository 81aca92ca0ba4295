"""Layered benchmark for curvepi.

    python3 bench/run.py --workload {verify,enumerate,subgroup} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root: it imports curvepi from ``src/``.  Every
pass runs in its own fresh, single-threaded Python process (bench/worker.py),
one after another and never two at once.  Inside that process one client
sends the pass's commands through ``curvepi.cli.main`` one at a time, with
standard input and output captured, and checks every output.

``--trace 0`` runs passes until about S seconds have gone and then the
workload's untimed correctness gate.  It reports, per workload:

    wall_s        median per pass of the pass's command times
    setup_s       median time from process start until the process is ready
                  to send its first command: interpreter start, importing
                  curvepi, starting the benchmark's client
    peak_rss_mib  median over passes of the pass process's peak resident memory

Times are in reference seconds (bench/calibration.py): each is scaled by
how fast a fixed Python loop ran next to it, so that runs made while the
host is busy and while it is idle compare.  The measured seconds are
printed too.

``--trace 1`` is a separate run of a fixed number of passes (fixed so that
its work counters repeat exactly).  Each pass runs twice, once untraced and
once with spans around every layer entry point (bench/tracing.py), and the
run reports per-layer self times and counters per pass, the untraced
per-command times ``cmd_s.*``, and the tracing overhead.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from time import perf_counter

import workloads
from calibration import REFERENCE_S, STARTUP_PROBE, STARTUP_REFERENCE_S, to_reference

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "curvepi", "cli.py")
RUN_LIMIT_S = 170.0
# a timed run starts no pass that would end after --seconds, but runs at
# least this many, so that its medians have a middle value
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

COMMANDS = ("verify", "tc", "rs", "ab")
PER_LAYER = {
    "coset_table.todd_coxeter.s": "s",
    "coset_table.todd_coxeter.calls": "count",
    "coset_table.todd_coxeter.index_sum": "count",
    "coset_table.todd_coxeter.overflows": "count",
    "coset_table.todd_coxeter.overflow_allocated": "count",
    "coset_table.validate_table.s": "s",
    "homomorphisms.refute_enum.s": "s",
    "homomorphisms.refute_enum.useful_frac": "ratio",
    "homomorphisms.check_homomorphism.s": "s",
    "homomorphisms.check_homomorphism.verified": "count",
    "homomorphisms.check_homomorphism.refuted": "count",
    "homomorphisms.check_homomorphism.inconclusive": "count",
    "derive.derive_relator.s": "s",
    "derive.derive_relator.calls": "count",
    "derive.derive_relator.inconclusive": "count",
    "derive.trace_steps": "count",
    "schreier.subgroup_presentation.s": "s",
    "schreier.raw_generators": "count",
    "schreier.raw_relators": "count",
    "schreier.raw_letters": "count",
    "schreier.simplify.s": "s",
    "schreier.simplify.generators_out": "count",
    "schreier.simplify.relators_out": "count",
    "schreier.simplify.letters_out": "count",
    "abelian.smith_normal_form.s": "s",
    "abelian.smith_normal_form.calls": "count",
    "abelian.matrix_cells": "count",
    "abelian.matrix_nonzeros": "count",
    "abelian.max_rows": "count",
    "abelian.max_cols": "count",
    "dsl.parse.s": "s",
    "dsl.parse.bytes": "bytes",
    "presentations.format_presentation.s": "s",
    **{f"verify.V{i}.s": "s" for i in range(1, 13)},
    "cli.main.s": "s",
    **{f"cmd_s.{kind}": "s" for kind in COMMANDS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# per-layer metrics that are a maximum over the passes, not a mean per pass
MAXIMA = ("abelian.max_rows", "abelian.max_cols")


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
        self.env.pop("CURVEPI_MAX_COSETS", None)

    def _launch(self, cmd: list) -> tuple:
        """Run ``cmd`` to its end; return the seconds until it printed
        ``ready``, and the rest of its output."""
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env)
        watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            ready_s = perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:])[:80]} exited with {proc.returncode}")
        return ready_s, rest

    def startup(self) -> float:
        """Seconds a bare interpreter takes to start and import a fixed set
        of standard modules: the yardstick for ``setup_s``."""
        return self._launch([sys.executable, "-c", STARTUP_PROBE])[0]

    def spawn(self, k: int, *mode: str) -> dict:
        start = perf_counter()
        setup_s, rest = self._launch([
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--pass", str(k), *mode,
        ])
        result = json.loads(rest.strip().splitlines()[-1])
        result["process_s"] = perf_counter() - start
        result["setup_s"] = setup_s
        result["pass_s"] = sum(seconds for _, seconds, _ in result["commands"])
        result["pass_ref_s"] = sum(ref for _, _, ref in result["commands"])
        result["ref_s_by_kind"] = defaultdict(float)
        for kind, _, ref in result["commands"]:
            result["ref_s_by_kind"][kind] += ref
        return result


def timed_run(runner: Runner, workload, seconds: float):
    passes = []
    start = perf_counter()
    while True:
        startup_s = runner.startup()
        passes.append(runner.spawn(len(passes)))
        passes[-1]["startup_s"] = startup_s
        passes[-1]["setup_ref_s"] = to_reference(passes[-1]["setup_s"], startup_s, STARTUP_REFERENCE_S)
        typical = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - start + typical > seconds:
            break
    gates = [runner.spawn(0, "--gate")] if workload.gate else []
    metrics = {
        "wall_s": statistics.median(p["pass_ref_s"] for p in passes),
        "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["max_rss_kib"] for p in passes) / 1024,
    }
    lines = [
        f"passes: {len(passes)}, one process each",
        "  measured s:  " + " ".join(f"{p['pass_s']:.3f}" for p in passes),
        "  reference s: " + " ".join(f"{p['pass_ref_s']:.3f}" for p in passes),
        f"measured medians: wall {statistics.median(p['pass_s'] for p in passes):.4f} s, "
        f"setup {statistics.median(p['setup_s'] for p in passes):.4f} s; "
        f"yardsticks: loop round {statistics.median(p['calibration_s'] for p in passes):.5f} s "
        f"(reference {REFERENCE_S} s), bare start {statistics.median(p['startup_s'] for p in passes):.4f} s "
        f"(reference {STARTUP_REFERENCE_S} s)",
    ]
    for kind in COMMANDS:
        times = [p["ref_s_by_kind"][kind] for p in passes if kind in p["ref_s_by_kind"]]
        if times:
            lines.append(f"cmd_s.{kind}: {statistics.median(times):.4f} s (reference, median per pass)")
    return metrics, passes + gates, lines


def traced_run(runner: Runner, workload):
    plain, traced = [], []
    for k in range(workload.traced_passes):
        # alternate which side runs first, so drift in machine speed cancels
        if k % 2:
            traced.append(runner.spawn(k, "--trace"))
            plain.append(runner.spawn(k))
        else:
            plain.append(runner.spawn(k))
            traced.append(runner.spawn(k, "--trace"))
    n = len(traced)
    sums = defaultdict(float)
    for p in traced:
        for name, value in p["trace"]["metrics"].items():
            sums[name] = max(sums[name], value) if name in MAXIMA else sums[name] + value
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("cmd_s."):
            metrics[name] = statistics.median(p["ref_s_by_kind"].get(name[6:], 0.0) for p in plain)
        elif name in MAXIMA:
            metrics[name] = sums[name]
        else:
            metrics[name] = sums[name] / n
    metrics["trace.overhead_s"] = (
        statistics.median(p["pass_ref_s"] for p in traced) - statistics.median(p["pass_ref_s"] for p in plain)
    )
    return metrics, plain + traced, self_time_report(traced)


def self_time_report(traced) -> list:
    """Per command kind: traced wall time per pass and the self time of each
    layer on its path.  The self times of a command's spans must add up to
    its wall time."""
    walls = defaultdict(float)
    layers = defaultdict(lambda: defaultdict(float))
    for p in traced:
        for c in p["trace"]["commands"]:
            total = sum(c["self_s"].values())
            if abs(total - c["wall_s"]) > 1e-6:
                raise BenchError(f"{c['kind']}: self times add to {total}, wall is {c['wall_s']}")
            walls[c["kind"]] += c["wall_s"]
            for name, s in c["self_s"].items():
                layers[c["kind"]][name] += s
    lines = []
    for kind, wall in walls.items():
        lines.append(f"command {kind}: traced {wall / len(traced):.4f} s per pass; self time by layer:")
        for name, s in sorted(layers[kind].items(), key=lambda item: -item[1]):
            lines.append(f"    {name:40} {s / len(traced):10.4f} s  {s / wall:6.1%}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(SOURCE):
        print(f"bench: {SOURCE} not found; run from the root of a curvepi checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, results, lines = traced_run(runner, workload)
            units = PER_LAYER
        else:
            metrics, results, lines = timed_run(runner, workload, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"ops: {attempted}  ops_failed: {failed}  fail_frac: {failed / attempted:.4f}")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
