"""Benchmark workloads: inputs made from a seed, the commands of one pass,
and the checks on every output.

A pass is a closed loop of CLI commands, each sent through
``curvepi.cli.main(argv)`` only after the previous one has returned, with
standard input and output captured as in a shell pipeline.

Inputs.  E6 is the Coxeter group of type E6 (order 51840) and G2378 the
(2,3,7;8) group (order 10752).  Seed 0 uses the presentations as written
below.  Any other seed rewrites each presentation, separately for every
pass, into an equivalent one: relators shuffled, each cyclically rotated
and inverted with probability one half.  Coset enumeration (HLT) is
sensitive to relator order, so a fresh rewrite per pass keeps one run from
measuring a single lucky or unlucky order.  The expected outputs are the
same for every seed.  ``verify`` has its inputs fixed inside the suite; the
seed does not apply to it.

This module does not import curvepi, so the parent process stays light.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

E6_TEXT = (
    "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
)
G2378_TEXT = "<a,b | a^2, b^3, (ab)^7, (a b a^-1 b^-1)^8>"

# The same presentations as relator strings: a lower-case letter is a
# generator, the upper-case letter its inverse.  The rewrites start here.
PRESENTATIONS = {
    "E6": (
        E6_TEXT,
        "abcdef",
        [g + g for g in "abcdef"]
        + [(x + y) * 3 for x, y in ("ab", "bc", "cd", "de", "cf")]
        + [(x + y) * 2 for x, y in ("ac", "ad", "ae", "af", "bd", "be", "bf", "ce", "df", "ef")],
    ),
    "G2378": (G2378_TEXT, "ab", ["aa", "bbb", "ab" * 7, "abAB" * 8]),
}

# Expected outputs; the same for every seed.
ORDERS = {"E6": 51840, "G2378": 10752}
ABELIANIZATION = "Z/2"
# (index, generators, relators) of the raw Reidemeister-Schreier output
RAW_SHAPES = {"abcde": (72, 361, 1512), "abcd": (432, 2161, 9072)}

with open(os.path.join(HERE, "reference", "verify.json"), encoding="utf-8") as _fh:
    VERIFY_REFERENCE = _fh.read()


def rewrite(relators: List[str], rng: random.Random) -> List[str]:
    """An equivalent relator list: shuffled, rotated, some inverted."""
    out = list(relators)
    rng.shuffle(out)
    for i, r in enumerate(out):
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = r[::-1].swapcase()
        out[i] = r
    return out


def render(gens: str, relators: List[str]) -> str:
    words = (" ".join(x if x.islower() else x.lower() + "^-1" for x in r) for r in relators)
    return f"<{','.join(gens)} | {', '.join(words)}>"


def presentation_text(name: str, seed: int, k: int) -> str:
    """The input ``name`` for pass ``k`` of a run with ``seed``."""
    text, gens, relators = PRESENTATIONS[name]
    if seed == 0:
        return text
    return render(gens, rewrite(relators, random.Random(f"{name}:{seed}:{k}")))


# ---------------------------------------------------------------------------
# checks: each takes (exit code, stdout) and returns None or a failure message

Check = Callable[[int, str], Optional[str]]


def expect_exact(expected: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if out != expected:
            return f"output {out[:60]!r} != {expected[:60]!r}"
        return None

    return check


def shape(text: str) -> tuple:
    """(generators, relators) of a printed presentation, counted from the
    text alone: names and words are separated by commas."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")) or "|" not in text:
        raise ValueError("not a presentation")
    gens, rels = text[1:-1].split("|", 1)
    return len(gens.split(",")), len(rels.split(",")) if rels.strip() else 0


def expect_rs(index: int, counts: Optional[tuple] = None) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        head, _, body = out.partition("\n")
        if head != f"index: {index}":
            return f"{head!r} != 'index: {index}'"
        try:
            got = shape(body)
        except ValueError as exc:
            return str(exc)
        if counts is not None and got != counts:
            return f"presentation shape {got} != {counts}"
        return None

    return check


def expect_raw_rs(subgroup: str) -> Check:
    index, *counts = RAW_SHAPES[subgroup]
    return expect_rs(index, tuple(counts))


# ---------------------------------------------------------------------------
# passes: each sends its commands through ``client.run(kind, argv, check,
# stdin)``, which returns the command's standard output


def _subgroup_args(gens: str) -> List[str]:
    return [a for g in gens for a in ("--subgroup", g)]


def verify_pass(client, seed: int, k: int) -> None:
    client.run("verify", ["verify", "--json"], expect_exact(VERIFY_REFERENCE))


def enumerate_pass(client, seed: int, k: int) -> None:
    for name in ("E6", "G2378"):
        client.run("tc", ["tc", presentation_text(name, seed, k)], expect_exact(f"{ORDERS[name]}\n"))


def subgroup_pass(client, seed: int, k: int) -> None:
    e6 = presentation_text("E6", seed, k)
    raw = client.run("rs", ["rs", e6, *_subgroup_args("abcde"), "--raw"], expect_raw_rs("abcde"))
    client.run("ab", ["ab", "-"], expect_exact(ABELIANIZATION + "\n"), raw.partition("\n")[2])
    slim = client.run("rs", ["rs", e6, *_subgroup_args("abcde")], expect_rs(RAW_SHAPES["abcde"][0]))
    client.run("ab", ["ab", "-"], expect_exact(ABELIANIZATION + "\n"), slim.partition("\n")[2])
    client.run("rs", ["rs", e6, *_subgroup_args("abcd"), "--raw"], expect_raw_rs("abcd"))


def _table_check(name: str, text: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        from curvepi.coset_table import CosetTable, validate_table
        from curvepi.dsl import parse_presentation

        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        if doc["n"] != ORDERS[name]:
            return f"{name}: n = {doc['n']} != {ORDERS[name]}"
        p = parse_presentation(text)
        forward = [doc["action"][g] for g in p.generators]
        backward = []
        for fmap in forward:
            inv = [0] * len(fmap)
            for i, img in enumerate(fmap):
                inv[img] = i
            backward.append(inv)
        report = validate_table(p, [], CosetTable(forward, backward))
        return None if report.passed else f"{name}: validate_table rejected the table"

    return check


def enumerate_gate(client, seed: int) -> None:
    """Outside the timed passes: the full tables of pass 0's inputs must
    pass the certificate check."""
    for name in ("E6", "G2378"):
        text = presentation_text(name, seed, 0)
        client.run("tc", ["tc", text, "--json"], _table_check(name, text))


class Workload:
    def __init__(self, run_pass, gate=None, traced_passes: int = 1):
        self.run_pass = run_pass
        self.gate = gate
        # passes in a traced run: fixed, so that its work counters repeat
        self.traced_passes = traced_passes


WORKLOADS = {
    "verify": Workload(verify_pass, traced_passes=10),
    "enumerate": Workload(enumerate_pass, enumerate_gate, traced_passes=4),
    "subgroup": Workload(subgroup_pass, traced_passes=2),
}
