import json
import os
import subprocess
import sys
from unittest.mock import patch

import pytest

from curvepi import derive, verify
from curvepi.cli import main as cli_main
from curvepi.coset_table import CosetTable
from curvepi.derive import Inconclusive
from curvepi.dsl import parse_presentation, parse_word
from curvepi.homomorphisms import Refuted, Verified, verify_isomorphism
from curvepi.presentations import SubstitutionMap
from curvepi.verify import ALL_CHECKS, SuiteConfig, run_suite, suite_json


def test_suite_ids():
    assert ALL_CHECKS == [f"V{i}" for i in range(1, 13)]


def test_selected_check():
    [report] = run_suite(["V1"])
    assert report.passed
    assert report.artifacts["cosets"] == 320
    assert report.artifacts["abelianization"] == "Z/5"
    # the coset table itself is attached for audit
    assert report.artifacts["table"]["n"] == 320


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_suite(["V99"])


@pytest.mark.parametrize("selection", [["V1", "V1"], ["V2", "V12", "V2"]])
def test_a_check_selected_twice_is_rejected(selection):
    with pytest.raises(ValueError, match=f"check '{selection[0]}' selected twice"):
        run_suite(selection)


def test_budget_exhaustion_is_inconclusive_never_fail():
    [report] = run_suite(["V1"], SuiteConfig(max_cosets=10))
    assert report.status == "inconclusive"
    # the detail is the overflow's own description, as tc prints it
    assert report.detail == "C5(3A4) enumeration: 10 cosets allocated (budget 10)"
    # V3 builds its table from the group action and enumerates nothing
    [v3] = run_suite(["V3"], SuiteConfig(max_cosets=10))
    assert v3.passed, v3.detail
    [report2] = run_suite(["V4"], SuiteConfig(max_states=2))
    assert report2.status == "inconclusive"


def test_full_suite_passes():
    reports = run_suite()
    assert len(reports) == 12
    for r in reports:
        assert r.passed, (r.id, r.detail)


def test_json_reports_are_byte_identical():
    first = suite_json(run_suite())
    second = suite_json(run_suite())
    assert first == second
    doc = json.loads(first)
    assert doc["all_pass"] is True
    assert [entry["id"] for entry in doc["suite"]] == ALL_CHECKS
    # timings are excluded by design so reports can be byte-stable
    assert "elapsed" not in first


REFERENCE = os.path.join(os.path.dirname(__file__), "..", "bench", "reference", "verify.json")


def test_verify_json_is_the_reference_output(capsys):
    # the byte-stable report, as the benchmark's gate compares it
    with open(REFERENCE, encoding="utf-8") as fh:
        want = fh.read()
    assert cli_main(["verify", "--json"]) == 0
    assert capsys.readouterr().out == want


def test_verify_json_under_python_dash_o_is_the_reference_output():
    # -O strips assert statements: no soundness check may be written as one,
    # so the report must not change when they are gone
    with open(REFERENCE, "rb") as fh:
        want = fh.read()
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "curvepi", "verify", "--json"],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


def test_an_enumerated_order_rests_on_a_checked_table(monkeypatch):
    # an enumerator that answers the order-12 group <x,y | x^3, y^3, (xy)^2>
    # with the identity action on twelve cosets: every relator fixes every
    # coset, but coset 0 reaches none of the others, so the table proves
    # nothing about the order
    real = verify.todd_coxeter
    source = parse_presentation("<x,y | x^3, y^3, (xy)^2>")
    identity = list(range(12))

    def enumerator(p, subgroup=(), limits=None):
        if p == source and not subgroup:
            return CosetTable([identity, identity], [identity, identity])
        return real(p, subgroup, limits)

    monkeypatch.setattr(verify, "todd_coxeter", enumerator)
    [v7] = run_suite(["V7"])
    assert v7.status == "fail", v7.detail
    assert v7.detail.startswith("source order: table certificate failed: "), v7.detail
    assert "not transitive" in v7.detail


def test_reports_carry_audit_artifacts():
    reports = {r.id: r for r in run_suite(["V3", "V8", "V10"])}
    v3 = reports["V3"].artifacts
    assert v3["index"] == 168
    assert v3["abelianization"] == "Z^6"
    assert v3["simplified_generators"] >= 6
    v8 = reports["V8"].artifacts
    assert sorted(v8["bipartition"][0]) == ["s0_b", "s1_b"]
    assert sorted(v8["bipartition"][1]) == ["s0_a", "s1_a", "s1_x"]
    v10 = reports["V10"].artifacts
    assert v10["2.2.2"]["self_intersections"]["C3"] == [7, 2]


def _isomorphism_report(source, target, forward, backward):
    """The report of a real two-sided check, built from DSL text."""
    src, dst = parse_presentation(source), parse_presentation(target)
    fwd = SubstitutionMap(src, dst, [parse_word(dst, forward)])
    bwd = SubstitutionMap(dst, src, [parse_word(src, backward)])
    return verify_isomorphism(fwd, bwd)


def test_refuted_map_fails_even_when_another_part_is_inconclusive(monkeypatch):
    # Z/6 -> Z/4, a -> b is refuted through the abelianization; the backward
    # map's derivation runs out of insertions
    with patch.object(derive, "_MAX_INSERTIONS", 1):
        report = _isomorphism_report("<a | a^6>", "<b | b^4>", "b", "a^3")
    assert isinstance(report.forward, Refuted)
    assert isinstance(report.backward, Inconclusive)
    monkeypatch.setattr(verify, "verify_isomorphism", lambda *args: report)
    [v5] = run_suite(["V5"])
    assert v5.status == "fail", v5.detail


def test_inconclusive_composition_is_inconclusive_not_fail(monkeypatch):
    # Z -> Z, a -> a^2 both ways: both maps are homomorphisms, and in a group
    # with no relators the composition derivations cannot succeed
    report = _isomorphism_report("<a |>", "<b |>", "b^2", "a^2")
    assert isinstance(report.forward, Verified) and isinstance(report.backward, Verified)
    assert not report.verified
    monkeypatch.setattr(verify, "verify_isomorphism", lambda *args: report)
    [v5] = run_suite(["V5"])
    assert v5.status == "inconclusive", v5.detail


def test_crashing_check_is_reported_and_the_rest_still_run(monkeypatch):
    def boom(cfg):
        return 1 // 0

    monkeypatch.setitem(verify._CHECKS, "V9", (boom, "raises"))
    reports = run_suite(["V2", "V9", "V10"])
    assert [r.id for r in reports] == ["V2", "V9", "V10"]
    assert reports[1].status == "fail"
    assert reports[1].detail.startswith("ZeroDivisionError: ")
    assert reports[0].passed and reports[2].passed
