"""Spans around the public entry points of curvepi's layers, recorded from
the benchmark's side.

``Tracer.install`` rebinds each entry point, in every curvepi module that
holds a reference to it, to a wrapper that records a span: name, start,
end, parent span and command id.  Spans stay in memory; ``layer_metrics``
turns them into per-layer self times and the work counters read at the same
boundaries.  Only a traced run installs the tracer, so timed runs never pay
for it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _presentation_size(p) -> dict:
    return {
        "generators": len(p.generators),
        "relators": len(p.relators),
        "letters": sum(len(w) for w in p.relators),
    }


def _matrix_size(args, result) -> dict:
    m = args[0]
    return {
        "rows": m.rows,
        "cols": m.cols,
        "nonzeros": sum(1 for row in m.entries for x in row if x),
    }


def _enumeration(args, result) -> dict:
    from curvepi.coset_table import Overflow

    if isinstance(result, Overflow):
        return {"overflow": 1, "allocated": result.allocated}
    return {"index": result.n}


def _derivation(args, result) -> dict:
    from curvepi.derive import Inconclusive

    if isinstance(result, Inconclusive):
        return {"inconclusive": 1}
    return {"steps": len(result.steps)}


# (span name, module, function, observer of (args, result) or None)
ENTRY_POINTS = [
    ("dsl.parse", "curvepi.dsl", "parse_presentation", lambda a, r: {"bytes": len(a[0].encode())}),
    ("dsl.parse", "curvepi.dsl", "parse_word", lambda a, r: {"bytes": len(a[1].encode())}),
    ("coset_table.todd_coxeter", "curvepi.coset_table", "todd_coxeter", _enumeration),
    ("coset_table.validate_table", "curvepi.coset_table", "validate_table", None),
    (
        "homomorphisms.check_homomorphism",
        "curvepi.homomorphisms",
        "check_homomorphism",
        lambda a, r: {type(r).__name__.lower(): 1},
    ),
    ("derive.derive_relator", "curvepi.derive", "derive_relator", _derivation),
    (
        "schreier.subgroup_presentation",
        "curvepi.schreier",
        "subgroup_presentation",
        lambda a, r: _presentation_size(r),
    ),
    ("schreier.simplify", "curvepi.schreier", "simplify", lambda a, r: _presentation_size(r)),
    ("abelian.smith_normal_form", "curvepi.abelian", "smith_normal_form", _matrix_size),
    ("presentations.format_presentation", "curvepi.presentations", "format_presentation", None),
]

CHECK_IDS = [f"V{i}" for i in range(1, 13)]


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, command id, info]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._command = -1

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._command, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, result)
            return result

        return traced

    def command(self, kind: str, fn: Callable) -> Callable:
        """A root span for one CLI command; its children share its id."""
        wrapped = self.wrap(f"cli.{kind}", fn)

        def run(*args, **kwargs):
            self._command += 1
            return wrapped(*args, **kwargs)

        return run

    def install(self) -> None:
        import curvepi.verify

        modules = [m for n, m in sys.modules.items() if n == "curvepi" or n.startswith("curvepi.")]
        for name, module_name, attr, observe in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        # run_suite dispatches through this table, not through module names
        table = curvepi.verify._CHECKS
        for check_id in CHECK_IDS:
            fn, title = table[check_id]
            table[check_id] = (self.wrap(f"verify.{check_id}", fn), title)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover.  Children
    of one span run one after another, so their durations add."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: List[list], scales: List[float]) -> dict:
    """Per-layer metrics of one pass, and the per-command breakdown.

    ``X.s`` is the self time of the spans named X, except ``verify.Vn.s``,
    which is the check's whole duration.  Times are scaled to reference
    seconds by their command's factor in ``scales``."""
    own = [t * scales[s[4]] for s, t in zip(spans, self_times(spans))]
    m: Dict[str, float] = defaultdict(float)
    by_command: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    roots: Dict[int, list] = {}
    sampling: Dict[int, float] = defaultdict(float)
    refute_attempts = refute_done = 0
    for s, t in zip(spans, own):
        name, start, end, parent, cmd, info = s
        info = info or {}
        if name == "calibration":  # the speed samples taken during the command
            sampling[cmd] += t
            continue
        by_command[cmd][name] += t
        if parent is None:
            roots[cmd] = s
            m["cli.main.s"] += t
            continue
        if name.startswith("verify."):
            m[name + ".s"] += (end - start) * scales[cmd]
            continue
        m[name + ".s"] += t
        if name == "coset_table.todd_coxeter":
            m["coset_table.todd_coxeter.calls"] += 1
            m["coset_table.todd_coxeter.index_sum"] += info.get("index", 0)
            m["coset_table.todd_coxeter.overflows"] += info.get("overflow", 0)
            m["coset_table.todd_coxeter.overflow_allocated"] += info.get("allocated", 0)
            if spans[parent][0] == "homomorphisms.check_homomorphism":
                refute_attempts += 1
                refute_done += "index" in info
                m["homomorphisms.refute_enum.s"] += (end - start) * scales[cmd]
        elif name == "homomorphisms.check_homomorphism":
            for verdict in ("verified", "refuted", "inconclusive"):
                m[f"{name}.{verdict}"] += info.get(verdict, 0)
        elif name == "derive.derive_relator":
            m[name + ".calls"] += 1
            m[name + ".inconclusive"] += info.get("inconclusive", 0)
            m["derive.trace_steps"] += info.get("steps", 0)
        elif name == "schreier.subgroup_presentation":
            for key in ("generators", "relators", "letters"):
                m[f"schreier.raw_{key}"] += info[key]
        elif name == "schreier.simplify":
            for key in ("generators", "relators", "letters"):
                m[f"{name}.{key}_out"] += info[key]
        elif name == "abelian.smith_normal_form":
            m[name + ".calls"] += 1
            m["abelian.matrix_cells"] += info["rows"] * info["cols"]
            m["abelian.matrix_nonzeros"] += info["nonzeros"]
            m["abelian.max_rows"] = max(m["abelian.max_rows"], info["rows"])
            m["abelian.max_cols"] = max(m["abelian.max_cols"], info["cols"])
        elif name == "dsl.parse":
            m["dsl.parse.bytes"] += info["bytes"]
    m["homomorphisms.refute_enum.useful_frac"] = refute_done / refute_attempts if refute_attempts else 0.0
    m["trace.spans"] = len(spans) - sum(1 for s in spans if s[0] == "calibration")
    commands = []
    for cmd, root in sorted(roots.items()):
        commands.append(
            {
                "kind": root[0][len("cli."):],
                "wall_s": (root[2] - root[1]) * scales[cmd] - sampling[cmd],
                "self_s": dict(by_command[cmd]),
            }
        )
    return {"metrics": dict(m), "commands": commands}
