import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from curvepi import cli
from curvepi.cli import main, make_parser
from curvepi.geometry import CombinatorialType
from curvepi.words import MAX_LETTERS

ROOT = os.path.join(os.path.dirname(__file__), "..")
PKG = os.path.join(ROOT, "src", "curvepi")
TYPES = os.path.join(PKG, "data", "types")
BLOWUP = os.path.join(PKG, "data", "blowup")
SCHEMAS = os.path.join(PKG, "schemas")


def run(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    import sys

    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def schema(name):
    with open(os.path.join(SCHEMAS, name)) as fh:
        return json.load(fh)


def test_ab_inline():
    code, out, _ = run(["ab", "<a,b | b=a b^4 a, a^2=b^2 a^3 b^2>"])
    assert code == 0
    assert out.strip() == "Z/5"


def test_ab_json_schema():
    code, out, _ = run(["ab", "<a,b | a^3 = b^4>", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"free_rank": 1, "torsion": []}
    if jsonschema:
        jsonschema.validate(doc, schema("invariants.schema.json"))


def test_tc_pipeline_quotient():
    # catalog gr:2,3,5 | tc --quotient-by a^2 -> 60
    code, out, _ = run(["catalog", "gr:2,3,5"])
    assert code == 0
    code, out2, _ = run(["tc", "-", "--quotient-by", "a^2"], stdin=out)
    assert code == 0
    assert out2.strip() == "60"


def _readme_examples():
    """(line, pipeline, value) for each command of README's example block,
    the one whose comments name outputs as ``# -> value``: the pipeline is
    the argument lists of its ``|``-separated commands, ``curvepi`` left
    off, and the value the text after ``->`` up to a comma, or None."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    (block,) = [b for b in blocks if "# ->" in b]
    found = []
    for line in filter(None, block.splitlines()):
        words = shlex.split(line, comments=True)
        pipeline = [[]]
        for word in words:
            if word == "|":
                pipeline.append([])
            else:
                pipeline[-1].append(word)
        assert all(argv[0] == "curvepi" for argv in pipeline), line
        value = re.search(r"# -> ([^,]+)", line)
        found.append((line, [argv[1:] for argv in pipeline], value and value.group(1).strip()))
    return found


def test_readme_examples_run(monkeypatch):
    # each command of the example block runs from the repository root, a
    # pipe feeding the next command's stdin, and prints the value its
    # comment names on its first line
    monkeypatch.chdir(ROOT)
    examples = _readme_examples()
    assert [value for _, _, value in examples if value] == ["Z/5", "60", "60"]
    for line, pipeline, value in examples:
        out = None
        for argv in pipeline:
            code, out, err = run(argv, stdin=out)
            assert code == 0, (line, err)
        if value:
            assert out.splitlines()[0] == value, line


def test_calls_in_one_process_share_the_parser_but_not_their_values():
    # a repeated option starts from nothing in every call: if the values of
    # one call reached the next, the second would impose (ab)^5 and (ab)^3,
    # so ab = 1 and the index is 1, and the third would see both subgroups
    text = "<a,b | a^2, b^3>"
    first = run(["tc", text, "--quotient-by", "(ab)^5", "--subgroup", "a"])
    second = run(["tc", text, "--quotient-by", "(ab)^3", "--subgroup", "b"])
    third = run(["tc", text, "--quotient-by", "(ab)^5", "--subgroup", "a"])
    assert make_parser() is make_parser()
    assert first == third == (0, "30\n", "")
    assert second == (0, "4\n", "")


# representative argv of each command, every option given
COMMAND_ARGV = [
    ["ab", "<a | a^2>", "--json"],
    ["tc"],
    ["tc", "<a |>", "--subgroup", "a^2", "--subgroup", "a^3", "--quotient-by", "a^6",
     "--max-cosets", "9", "--stats", "--json"],
    ["rs", "<a |>", "--subgroup", "a", "--raw", "--max-cosets", "5", "--json"],
    ["catalog", "toric:2,3", "--json"],
    ["blowup", "--script", "s.json", "--json"],
    ["classify", "--type", "t.json", "--json"],
    ["verify", "--only", "V1,V2", "--budget", "7", "--max-cosets", "8", "--json"],
]


def test_one_subparser_parses_as_the_full_parser():
    # main builds only the subparser of the command it runs
    assert {argv[0] for argv in COMMAND_ARGV} == set(cli._COMMANDS)
    for argv in COMMAND_ARGV:
        assert make_parser(argv[0]).parse_args(argv) == make_parser().parse_args(argv), argv


def test_one_subparser_reports_usage_errors_as_the_full_parser(capsys):
    errors = []
    for parser in (make_parser("tc"), make_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args(["tc", "<a |>", "--bogus"])
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1] and "{ab,tc,rs,catalog,blowup,classify,verify}" in errors[0].err


def test_main_builds_the_full_parser_only_without_a_known_command(monkeypatch, capsys):
    # each call of the builder records the command it asks for
    asked = []

    def recording(*command):
        asked.append(command)
        return make_parser(*command)

    monkeypatch.setattr(cli, "make_parser", recording)
    assert main(["catalog", "toric:2,3"]) == 0
    assert asked == [("catalog",)]
    asked.clear()
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert asked == [()]
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_tc_json_schema():
    code, out, _ = run(["tc", "<a | a^3>", "--json"])
    doc = json.loads(out)
    assert doc["n"] == 3
    if jsonschema:
        jsonschema.validate(doc, schema("coset_table.schema.json"))


def test_tc_overflow_exit_code():
    code, out, err = run(["tc", "<a,b |>", "--max-cosets", "50"])
    assert code == 1
    assert "overflow" in err


def test_the_environment_does_not_set_the_coset_budget(monkeypatch):
    # --max-cosets is the only source of the budget; a stray variable,
    # even a malformed one, changes nothing
    monkeypatch.setenv("CURVEPI_MAX_COSETS", "abc")
    assert run(["tc", "<a|a^3>"]) == (0, "3\n", "")
    code, out, err = run(["verify", "--only", "V10"])
    assert (code, err) == (0, "")
    assert out.startswith("V10  PASS ")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_rejects_a_nonpositive_budget(budget):
    code, out, err = run(["verify", "--budget", budget, "--only", "V7"])
    assert code == 2
    assert out == ""
    assert err == "error: budget fields must be positive\n"


@pytest.mark.parametrize("max_cosets", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", [["tc", "<a | a^3>"], ["rs", "<a | a^3>", "--subgroup", "a"], ["verify"]]
)
def test_commands_reject_a_nonpositive_coset_budget(argv, max_cosets, monkeypatch):
    # verify checks its budgets before it runs any check
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    code, out, err = run(argv + ["--max-cosets", max_cosets])
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_rs_subgroup():
    code, out, _ = run(
        ["rs", "<a,b|>", "--subgroup", "a^2", "--subgroup", "b", "--subgroup", "a b a^-1"]
    )
    assert code == 0
    assert "index: 2" in out


def test_rs_with_no_generators_pipes_to_ab_and_tc():
    # the trivial subgroup presentation has no generators; it must parse
    code, out, _ = run(["rs", "<a,b | a, b>", "--subgroup", "a"])
    assert (code, out) == (0, "index: 1\n<  |  >\n")
    body = out.partition("\n")[2]
    assert run(["ab", "-"], stdin=body)[:2] == (0, "0\n")
    assert run(["tc", "-"], stdin=body)[:2] == (0, "1\n")


def test_rs_overflow_reports_the_budget():
    code, out, err = run(["rs", "<a,b |>", "--subgroup", "a", "--max-cosets", "50"])
    assert code == 1
    assert out == ""
    assert err == "overflow: 50 cosets allocated (budget 50); index may be infinite\n"


def test_catalog_text_and_json():
    code, out, _ = run(["catalog", "toric:3,4"])
    assert code == 0 and out.strip() == "< a, b | a^3 b^-4 >"
    code, out, _ = run(["catalog", "quintic:C4_3A2", "--json"])
    doc = json.loads(out)
    assert doc["generators"] == ["a", "b", "c"]
    if jsonschema:
        jsonschema.validate(doc, schema("presentation.schema.json"))


def test_catalog_bad_tag_usage_error():
    code, _, err = run(["catalog", "nonsense:1"])
    assert code == 2
    assert "error" in err


def test_deep_parentheses_are_a_usage_error():
    # the recursive descent runs out of stack; that is the input's fault
    deep = "(" * 600 + "a" + ")" * 600
    for argv in (["ab", f"<a | {deep}>"], ["tc", "<a | a^2>", "--subgroup", deep]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: parentheses nested too deeply (line 1, column ")
    tag = "(" * 600 + "free:1" + ")" * 600
    assert run(["catalog", tag]) == (2, "", f"error: bad tag syntax {tag!r}\n")


def test_catalog_raag_vertex_count_is_not_negative():
    assert run(["catalog", "raag:-1;"]) == (2, "", "error: bad tag syntax 'raag:-1;'\n")
    assert run(["catalog", "raag:0;"]) == (0, "<  |  >\n", "")


def test_classify_fixture():
    path = os.path.join(TYPES, "four_concurrent_lines.json")
    code, out, _ = run(["classify", "--type", path])
    assert code == 0
    assert out.strip() == "F_3 (case 1.3)"


def test_classify_json_schema():
    path = os.path.join(TYPES, "three_cuspidal_quartic.json")
    code, out, _ = run(["classify", "--type", path, "--json"])
    doc = json.loads(out)
    assert doc["group"] == "B_3(S^2)" and doc["finite_order"] == 12
    if jsonschema:
        jsonschema.validate(doc, schema("classification.schema.json"))


def test_classify_not_covered(tmp_path):
    doc = {
        "components": [{"id": "C", "degree": 4}, {"id": "L", "degree": 1}],
        "singularities": [
            {"kind": "A2", "at": "p", "owners": ["C"]},
            {"kind": "x4", "at": "q", "owners": ["C", "L"]},
        ],
    }
    path = tmp_path / "ct.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["classify", "--type", str(path)])
    assert code == 1
    assert "not covered" in err


def _example_script(**changes):
    with open(os.path.join(BLOWUP, "example1.json"), encoding="utf-8") as fh:
        return {**json.load(fh), **changes}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("classify", [], "a combinatorial type is not a JSON object"),
        (
            "classify",
            {"components": [["C", 3]], "singularities": []},
            "component 0 is not a JSON object",
        ),
        (
            "classify",
            {"components": [{"id": "C", "degree": None}], "singularities": []},
            "degree of component 0 is not a JSON integer",
        ),
        (
            "classify",
            {"components": [{"id": "C", "degree": 3}]},
            'a combinatorial type has no "singularities" field',
        ),
        ("blowup", [], "a blow-up script is not a JSON object"),
        ("blowup", _example_script(steps=[{}]), 'step 0 has no "blow" field'),
        ("blowup", _example_script(steps=[{"blow": "z"}]), "no pending point 'z'"),
        ("blowup", _example_script(d=["Z"]), "unknown component 'Z'"),
    ],
    ids=[
        "type-array", "component-array", "null-degree", "no-singularities",
        "script-array", "step-without-blow", "unknown-point", "unknown-d-component",
    ],
)
def test_document_of_the_wrong_shape_is_a_usage_error(tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--type" if command == "classify" else "--script"
    assert run([command, flag, str(path)]) == (2, "", f"error: {message}\n")


def _nodes(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _type_accepted(doc) -> bool:
    try:
        CombinatorialType.from_json(doc)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "command, paths",
    [
        ("classify", [os.path.join(TYPES, name) for name in sorted(os.listdir(TYPES))]),
        ("blowup", [os.path.join(BLOWUP, "example1.json")]),
    ],
    ids=["type", "script"],
)
def test_fixture_with_any_one_value_replaced_exits_without_a_traceback(tmp_path, command, paths):
    # a value of the wrong JSON type is a usage error (2); a well-formed
    # document is a verdict (0 or 1), and so is every type the reader
    # accepts; nothing ends in an exception
    flag = "--type" if command == "classify" else "--script"
    doc_path = tmp_path / "doc.json"
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            fixture = json.load(fh)
        for node in _nodes(fixture):
            for value in (None, True, 7, "x", [], {}, [None], [["C", 2]]):
                doc = json.loads(json.dumps(fixture))
                if node:
                    parent = doc
                    for key in node[:-1]:
                        parent = parent[key]
                    parent[node[-1]] = value
                else:
                    doc = value
                doc_path.write_text(json.dumps(doc))
                code, _, _ = run([command, flag, str(doc_path)])
                verdict = command == "classify" and _type_accepted(doc)
                assert code in ((0, 1) if verdict else (0, 1, 2)), (path, node, value)


def test_classify_type_that_breaks_bezout_is_a_failure(tmp_path):
    # a well-formed document whose type is invalid is a verdict, not a usage error
    doc = {
        "components": [{"id": "L", "degree": 1}, {"id": "M", "degree": 1}],
        "singularities": [{"kind": "x2", "at": "p", "owners": ["L", "M"]}],
    }
    path = tmp_path / "ct.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["classify", "--type", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("invalid combinatorial type:")


def test_blowup_script():
    code, out, _ = run(["blowup", "--script", os.path.join(BLOWUP, "example1.json")])
    assert code == 0
    assert "self-intersection 1 > 0" in out
    if jsonschema:
        for name in os.listdir(BLOWUP):
            with open(os.path.join(BLOWUP, name)) as fh:
                jsonschema.validate(json.load(fh), schema("blowup_script.schema.json"))


def _self_node_script(parties, second_blow=(["C", 1],)):
    # a conic blown up at two smooth points has C.C = 2, here with a self-node
    return {
        "components": [{"id": "C", "degree": 2}],
        "points": [{"id": "n", "kind": "node", "parties": parties}],
        "steps": [{"blow": [["C", 1]]}, {"blow": list(second_blow)}],
        "d": ["C"],
    }


def test_blowup_point_names_each_component_once(tmp_path):
    # written [C, 2] the node gives r = 1 and the criterion fails; written
    # [C, 1], [C, 1] it gave r = 0, and the script passed with exit 0
    path = tmp_path / "script.json"
    path.write_text(json.dumps(_self_node_script([["C", 2]])))
    code, out, _ = run(["blowup", "--script", str(path)])
    assert code == 1
    assert "C: self-intersection 2 > 2 -> FAIL" in out
    path.write_text(json.dumps(_self_node_script([["C", 1], ["C", 1]])))
    assert run(["blowup", "--script", str(path)]) == (2, "", "error: point 'n' names 'C' twice\n")
    # a free-form blow-up there dropped C.C by 2, not 4
    path.write_text(json.dumps(_self_node_script([["C", 2]], [["C", 1], ["C", 1]])))
    assert run(["blowup", "--script", str(path)]) == (
        2, "", "error: blow-up point names 'C' twice\n"
    )


def test_blowup_rejects_two_points_with_one_id(tmp_path):
    path = tmp_path / "script.json"
    # a conic with two self-nodes both called q ended with two_r 0 for C
    node = {"id": "q", "kind": "node", "parties": [["C", 2]]}
    steps = [{"blow": [["C", 1]]}, {"blow": "q"}]
    path.write_text(json.dumps({**_self_node_script([]), "points": [node, node], "steps": steps}))
    assert run(["blowup", "--script", str(path)]) == (2, "", "error: two points have the id 'q'\n")
    # blowing up the cusp q leaves a tangency q.1 beside the declared node
    # q.1; blowing that up dropped the tangency and printed criterion: pass
    path.write_text(json.dumps({
        "components": [{"id": "C", "degree": 3}, {"id": "L", "degree": 1}],
        "points": [
            {"id": "q", "kind": "cusp", "parties": [["C", 2]]},
            {"id": "q.1", "kind": "node", "parties": [["C", 1], ["L", 1]]},
        ],
        "steps": [{"blow": "q"}, {"blow": "q.1"}],
        "d": ["C"],
    }))
    assert run(["blowup", "--script", str(path)]) == (
        2, "", "error: two points have the id 'q.1'\n"
    )


def _cubic_and_line_script(line):
    # a cuspidal cubic and a line away from the cusp, the cusp resolved
    return {
        "components": [{"id": "C", "degree": 3}, {"id": line, "degree": 1}],
        "points": [{"id": "q", "kind": "cusp", "parties": [["C", 2]]}],
        "steps": [{"blow": "q"}, {"blow": "q.1"}, {"blow": "q.1.1"}],
        "d": ["C", line],
    }


def test_blowup_rejects_a_component_named_like_an_exceptional_curve(tmp_path):
    # the line keeps L.L = 1; named E1 it was charged the drops that belong
    # to the first exceptional curve and read -1
    path = tmp_path / "script.json"
    path.write_text(json.dumps(_cubic_and_line_script("L")))
    code, out, _ = run(["blowup", "--script", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["self_intersections"] == {"C": 3, "L": 1}
    path.write_text(json.dumps(_cubic_and_line_script("E1")))
    assert run(["blowup", "--script", str(path)]) == (
        2, "", "error: component id 'E1' is reserved for exceptional curves\n"
    )


@pytest.mark.skipif(jsonschema is None, reason="jsonschema unavailable")
def test_blowup_schema_reserves_exceptional_curve_ids():
    script_schema = schema("blowup_script.schema.json")
    jsonschema.validate(_cubic_and_line_script("L"), script_schema)
    jsonschema.validate(_cubic_and_line_script("E1a"), script_schema)
    for line in ("E1", "E23"):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(_cubic_and_line_script(line), script_schema)


@pytest.mark.skipif(jsonschema is None, reason="jsonschema unavailable")
def test_blowup_schema_point_rules():
    # a point lies on a component, and only a tangency has an order
    script_schema = schema("blowup_script.schema.json")
    valid = _self_node_script([["C", 2]])
    tangency = {"id": "t", "kind": "tangency", "parties": [["C", 1], ["L", 1]]}
    jsonschema.validate(valid, script_schema)
    jsonschema.validate({**valid, "points": [{**tangency, "order": 3}]}, script_schema)
    for point in (
        {"id": "n", "kind": "node", "parties": []},
        {"id": "q", "kind": "cusp", "parties": [["C", 2]], "order": 7},
        tangency,
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**valid, "points": [point]}, script_schema)


def test_type_fixtures_validate_against_schema():
    if not jsonschema:
        pytest.skip("jsonschema unavailable")
    for name in os.listdir(TYPES):
        with open(os.path.join(TYPES, name)) as fh:
            jsonschema.validate(json.load(fh), schema("combinatorial_type.schema.json"))


def test_verify_subset_and_json_schema():
    code, out, _ = run(["verify", "--only", "V1,V12", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [e["id"] for e in doc["suite"]] == ["V1", "V12"]
    if jsonschema:
        jsonschema.validate(doc, schema("verify_report.schema.json"))


@pytest.mark.parametrize("only", ["", ",", " "])
def test_verify_only_naming_no_check_is_a_usage_error(only):
    code, out, err = run(["verify", "--only", only])
    assert (code, out) == (2, "")
    assert err.startswith("error: no check selected; known: V1, V2,")


def test_verify_only_naming_an_unknown_check_is_a_usage_error():
    known = ", ".join(f"V{i}" for i in range(1, 13))
    assert run(["verify", "--only", "V99"]) == (2, "", f"error: unknown check 'V99'; known: {known}\n")


def test_verify_only_naming_a_check_twice_is_a_usage_error():
    assert run(["verify", "--only", "V1,V1"]) == (2, "", "error: check 'V1' selected twice\n")


def test_verify_text_mode():
    code, out, _ = run(["verify", "--only", "V12"])
    assert code == 0
    assert "PASS" in out and "2/2" not in out


def test_parse_error_is_usage_error():
    code, _, err = run(["ab", "<a,b | q>"])
    assert code == 2
    assert "parse error" in err


def test_superscript_exponent_is_a_parse_error():
    code, out, err = run(["ab", "<a | a^\u00b2>"])
    assert code == 2 and out == ""
    assert err == "parse error: expected an integer (line 1, column 8)\n"


def test_exponent_beyond_maxsize_is_a_parse_error():
    # 2^62 letters fit under sys.maxsize but not in a list
    message = f"parse error: power makes a word longer than {MAX_LETTERS} letters"
    for huge in (2**62, sys.maxsize + 1):
        code, out, err = run(["ab", f"<a | a^{huge}>"])
        assert (code, out, err) == (2, "", f"{message} (line 1, column 8)\n")
        code, out, err = run(["tc", "<a,b | a^2, b^3>", "--subgroup", f"a^{huge}"])
        assert (code, out, err) == (2, "", f"{message} (line 1, column 3)\n")


@pytest.mark.parametrize("r", [sys.maxsize // 2 + 1, sys.maxsize + 1])
def test_catalog_power_too_long_for_a_tuple_is_a_usage_error(r):
    # c^r would hold r letters, more than a tuple can; the check comes
    # before anything is allocated
    code, out, err = run(["catalog", f"gr:2,3,{r}"])
    assert (code, out) == (2, "")
    assert err == f"error: power makes a word longer than {MAX_LETTERS} letters\n"


@pytest.mark.parametrize("argv", [["ab", f"<a | a^{2**59}>"], ["catalog", f"toric:3,{2**59}"]])
def test_power_too_long_for_memory_is_a_usage_error(argv):
    # 2^59 letters pass the MAX_LETTERS check on a 64-bit build, and their
    # 4 EiB list fails to allocate at once
    assert run(argv) == (2, "", "error: out of memory\n")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.dirname(os.path.abspath(PKG))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "curvepi", "verify", "--only", "V1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("V1 ") and "1/1 checks passed" in done.stdout
