"""Checks on the library source itself."""

import ast
import inspect
import json
import os
import re
import textwrap
from collections import Counter

import curvepi
from curvepi import coset_table, derive
from curvepi.cli import make_parser
from curvepi.geometry import _POINT_KINDS
from curvepi.homomorphisms import check_homomorphism, verify_isomorphism
from curvepi.verify import SuiteConfig

PKG = os.path.join(os.path.dirname(__file__), "..", "src", "curvepi")


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a soundness check written as
    # one would vanish; the library raises instead
    found = []
    names = sorted(n for n in os.listdir(PKG) if n.endswith(".py"))
    assert names
    for name in names:
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _references(node):
    """Names and attribute names read anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _defined(stmt):
    """Names a top-level statement defines: a function or class, or the
    plain names assigned to, dunder names such as ``__all__`` aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and not sub.id.startswith("__")
    }


def test_every_library_definition_is_used_by_the_library():
    # a top-level function, class or constant that only the tests use
    # belongs in tests/, next to the oracles that were moved there
    defs = []  # (module, name)
    refs = []  # (module, names the statement defines, names referenced)
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        module = name[:-3]
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for stmt in tree.body:
            owners = _defined(stmt)
            defs += [(module, owner) for owner in sorted(owners)]
            refs.append((module, owners, _references(stmt)))
    assert defs
    exported = set(curvepi.__all__)
    unused = [
        f"{module}.{name}"
        for module, name in defs
        if name not in exported
        and (module, name) != ("cli", "main")
        and not any(
            name in names and not (ref_module == module and name in owners)
            for ref_module, owners, names in refs
        )
    ]
    assert unused == []


def _reads(node):
    """How often each name or attribute name is read under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_library_method_is_used_by_the_library():
    # a method or property of a class that curvepi does not export is read
    # somewhere in the library outside its own body; dunder methods are
    # exempt, as Python calls them
    reads = Counter()
    methods = []  # (module, class, definition)
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        reads += _reads(tree)
        methods += [
            (name, stmt.name, member)
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) and stmt.name not in curvepi.__all__
            for member in stmt.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (member.name.startswith("__") and member.name.endswith("__"))
        ]
    assert methods
    unused = [
        f"{module}:{cls}.{member.name}"
        for module, cls, member in methods
        if reads[member.name] == _reads(member)[member.name]
    ]
    assert unused == []


def test_dense_matrix_stays_out_of_the_engines():
    # the engines abelianize from sparse exponent rows; the dense IntMatrix
    # is only the exported entry to smith_normal_form
    named = []
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            if re.search(r"\bIntMatrix\b", fh.read()):
                named.append(name)
    assert named == ["__init__.py", "abelian.py"]


def test_library_reads_digits_as_int_does():
    # str.isdigit accepts superscripts such as "\u00b2" that int() rejects;
    # str.isdecimal accepts exactly the digits int() reads
    found = []
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            found += [f"{name}:{i}" for i, line in enumerate(fh, 1) if ".isdigit(" in line]
    assert found == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_library_reads_no_environment():
    # the command line is the only configuration: a variable set in the
    # shell must not change a budget or a verdict
    found = []
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}: {ref}" for ref in sorted(_references(tree) & _ENVIRONMENT)]
    assert found == []


def test_only_words_reads_maxsize():
    # words.MAX_LETTERS, derived from sys.maxsize, is the one bound on the
    # length of a word; a bound read from sys.maxsize elsewhere would pass
    # powers that no list can hold
    found = []
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        if "maxsize" in _references(tree):
            found.append(name)
    assert found == ["words.py"]


def test_verify_certifies_each_kind_of_fact_one_way():
    # an enumerated order is certified only through _enumerated (which also
    # checks the table), an isomorphism only through _isomorphic and an
    # abelianization only through _abelianization
    with open(os.path.join(PKG, "verify.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="verify.py")
    engines = {"todd_coxeter", "verify_isomorphism", "abelian_invariants"}
    users = {
        (engine, ", ".join(sorted(_defined(stmt))) or f"line {stmt.lineno}")
        for stmt in tree.body
        for engine in sorted(_references(stmt) & engines)
    }
    assert users == {
        ("todd_coxeter", "_enumerated"),
        ("verify_isomorphism", "_isomorphic"),
        ("abelian_invariants", "_abelianization"),
    }


def test_blowup_schema_names_the_point_kinds_of_the_table():
    with open(os.path.join(PKG, "schemas", "blowup_script.schema.json"), encoding="utf-8") as fh:
        point = json.load(fh)["properties"]["points"]["items"]
    assert sorted(point["properties"]["kind"]["enum"]) == sorted(_POINT_KINDS)


def test_each_budget_has_one_default():
    # the coset and state budgets are the two the CLI sets; each default is
    # one constant, the same object wherever a budget is taken
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parse = make_parser().parse_args
    cosets = [parse(argv).max_cosets for argv in (["tc"], ["rs", "<a|>", "--subgroup", "a"], ["verify"])]
    cosets += [default(coset_table.todd_coxeter, "max_cosets"), default(SuiteConfig, "max_cosets")]
    assert all(d is coset_table.MAX_COSETS for d in cosets), cosets
    states = [parse(["verify"]).budget, default(SuiteConfig, "max_states")]
    states += [default(fn, "max_states") for fn in (derive.derive_relator, check_homomorphism, verify_isomorphism)]
    assert all(d is derive.MAX_STATES for d in states), states


def test_enumeration_kernel_runs_in_one_frame():
    # the enumerator makes no Python call per coset, definition or
    # deduction: todd_coxeter nests no function, and no name its kernel loop
    # reads is a cell, which a comprehension reading it makes in Python 3.11
    fn = coset_table.todd_coxeter
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert [node for node in ast.walk(tree) if node is not tree and isinstance(node, nested)] == []
    kernel = next(stmt for stmt in tree.body if isinstance(stmt, ast.While))
    read = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    assert not read & set(fn.__code__.co_cellvars)


def _defaulted(fn, bound):
    """(name, position) of each parameter of ``fn`` with a default; the
    position counts past ``bound`` leading parameters (self or cls) and is
    None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    found += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _passes(call, name, position):
    """Whether ``call`` passes the parameter, by keyword or position; a
    call that unpacks ``*`` or ``**`` arguments may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_the_library():
    # a default that no library call overrides is a constant with a
    # parameter around it: tests set it, nothing else does.  A call is
    # matched to a definition by name (a class name calls its __init__,
    # and a method's first parameter is bound), so a same-named callee
    # elsewhere may count; the allowlist is the command-line entry and
    # IntMatrix, which only the tests build
    allowed = {"cli.main(argv)", "abelian.IntMatrix.__init__(cols)"}
    calls = {}  # callee name -> calls
    params = []  # (where, callee name, parameter, position)
    for name in sorted(n for n in os.listdir(PKG) if n.endswith(".py")):
        module = name[:-3]
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods.add(fn)
                        callee = node.name if fn.name == "__init__" else fn.name
                        params += [
                            (f"{module}.{node.name}.{fn.name}({p})", callee, p, i)
                            for p, i in _defaulted(fn, 1)
                        ]
        params += [
            (f"{module}.{fn.name}({p})", fn.name, p, i)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn not in methods
            for p, i in _defaulted(fn, 0)
        ]
    assert params
    unset = [
        where
        for where, callee, p, i in params
        if where not in allowed and not any(_passes(c, p, i) for c in calls.get(callee, []))
    ]
    assert unset == []
