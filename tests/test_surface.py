"""Guards on the surface of golay486: every public function and class and
every private top-level function is used by the program or its benchmark,
every parameter default of a public function is overridden by some caller,
no function is memoised across
calls, the program holds no assert statement and makes no np.ix_ gather,
every exception the package defines is a ValueError, the Golay code is built in one place per command, one isomorphism search
is left, a cold verify does not import numpy.ma, and the README example
runs."""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "golay486").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_is_used_by_the_program():
    # A use is an ast.Name or ast.Attribute in src/golay486 or perfbench
    # outside the name's own definition; tests, imports and docstrings do
    # not count.  A private function that only tests call is dead code too.
    defined = []
    used_in: dict[str, set] = {}
    for path in PROGRAM:
        for top in ast.parse(path.read_text()).body:
            is_def = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            owner = (path, top.name) if is_def else None
            private_class = isinstance(top, ast.ClassDef) and top.name.startswith("_")
            if is_def and path in SOURCES and not private_class:
                defined.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used_in.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    used_in.setdefault(node.attr, set()).add(owner)
    unused = [
        f"{path.stem}.{name}"
        for path, name in defined
        if not used_in.get(name, set()) - {(path, name)}
    ]
    assert unused == []


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """The parameters of fn with a default other than None, each with its
    position in a call (None for keyword-only); a method's self or cls is
    not passed by position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = 1 if method else 0
    tail = positional[len(positional) - len(args.defaults) :]
    found = [
        (arg.arg, positional.index(arg) - offset)
        for arg, default in zip(tail, args.defaults)
        if not (isinstance(default, ast.Constant) and default.value is None)
    ]
    return found + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
        and not (isinstance(default, ast.Constant) and default.value is None)
    ]


def test_every_parameter_default_is_overridden_by_a_caller():
    # A default that no call in src/golay486 or perfbench overrides, by
    # keyword or by position, is a knob with one value: a constant or the
    # default's own value says the same with less code.  A call is matched
    # by the bare or attribute name of the function (the class name for
    # __init__); a *args or **kwargs call may set anything.
    knobs = []  # (qualified name, called name, parameter, position)
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                knobs += [
                    (f"{path.stem}.{top.name}", top.name, *p) for p in _defaulted(top, False)
                ]
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            for fn in top.body:
                if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("_") and fn.name != "__init__"
                ):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                called = top.name if fn.name == "__init__" else fn.name
                knobs += [
                    (f"{path.stem}.{top.name}.{fn.name}", called, *p)
                    for p in _defaulted(fn, not static)
                ]
    calls: dict[str, list[ast.Call]] = {}
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def overrides(call: ast.Call, param: str, position: int | None) -> bool:
        return (
            any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or (position is not None and position < len(call.args))
        )

    unset = [
        f"{qualified}({param}=)"
        for qualified, called, param, position in knobs
        if not any(overrides(c, param, position) for c in calls.get(called, []))
    ]
    assert unset == []


def test_no_function_is_memoised_across_calls():
    # cli.Run builds each artifact once per run; a module-level cache would
    # hide work repeated within a process.  cached_property, one value per
    # object, is allowed.
    memoised = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("cache", "lru_cache"):
                    memoised.append(f"{path.stem}.{node.name}")
    assert memoised == []


def test_the_program_holds_no_assert_statement():
    # python -O strips assert statements, so a check the program relies on
    # must raise an exception of its own
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_the_program_makes_no_ix_gather():
    # a[np.ix_(r, c)] gathers a block 4-7 times slower than a[r][:, c] at
    # n = 243-729 (numpy 2.4), and gives the same array
    gathers = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "ix_"
    ]
    assert gathers == []


def test_every_exception_the_package_defines_is_a_value_error():
    # one refusal type: cli.main exits 2 on a ValueError and a verify claim
    # reads it as "unavailable: <reason>"; any other exception is a fault
    # of the program and keeps its traceback
    defined = []
    for path in SOURCES:
        name = "golay486" if path.stem == "__init__" else f"golay486.{path.stem}"
        module = importlib.import_module(name)
        defined += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == name
        ]
    assert defined
    assert [c.__qualname__ for c in defined if not issubclass(c, ValueError)] == []


def _callers(tree: ast.AST, name: str, scope: str = "") -> list[str]:
    """The dotted scope (class and function names) of every call to `name`,
    whether by its bare name or as an attribute."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _callers(node, name, f"{scope}.{node.name}")
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                found.append(scope)
        found += _callers(node, name, scope)
    return found


def test_only_the_run_and_the_code_command_build_the_golay_code():
    # every other caller reads the code from cli.Run, so that its facts
    # (check, lifts) are derived once per command
    callers = sorted(
        f"{path.stem}{scope}"
        for path in SOURCES
        for scope in _callers(ast.parse(path.read_text()), "golay_code")
    )
    assert callers == ["cli.Run.golay", "cli._cmd_code"]


def test_the_lambda_certificate_is_the_one_isomorphism_search():
    # every other isomorphism claim is certified by a map built with no
    # search; the lambda certificate is one Run artifact that two claims share
    callers = sorted(
        f"{path.stem}{scope}"
        for path in SOURCES
        for scope in _callers(ast.parse(path.read_text()), "are_isomorphic")
    )
    assert callers == ["cli.Run.lambda_certificate"]


def test_cold_verify_does_not_import_numpy_ma():
    """A plain np.unique(x), with no return_* flag, calls np.ma.is_masked
    and so imports numpy.ma, 15-20 ms of every cold run that no verdict
    needs.  Only a fresh interpreter shows whether verify does that."""
    script = (
        "import contextlib, io, sys\n"
        "from golay486 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_readme_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    for array in ("{45,44,36,5; 1,9,40,45}", "{81,80,54,1; 1,27,80,81}"):
        assert array in out.getvalue()
