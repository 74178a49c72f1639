"""Every function parameter and every config key is read.

A parameter that its body never reads is an option with no effect: a
caller can set it and nothing changes.  This test parses the package
source and fails on any such parameter.  The only exceptions are the
experiment registry's calling conventions, listed below: every runner
is called as run(values, seed) and every check as check(values),
whether or not that runner or check needs the argument.

The same holds one level up: each config key an EXPERIMENTS entry lists
must be read by that entry's runner, as values["key"].

A parameter with a default is an option too, and one that every caller
leaves at a single value has no effect either: the value is a constant
of the library, and belongs beside the check that reads it.  The last
test scans every call in the package and in perfbench/ and requires
each defaulted package parameter to receive at least two values.
"""
import ast
import copy
import inspect
import textwrap
from pathlib import Path

from asymmbench.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymmbench"

# (module, function, parameter) triples allowed to go unread.
REGISTRY_INTERFACE = {
    ("experiments", "_run_nonadditivity", "seed"),
    ("experiments", "_run_ki", "seed"),
    ("experiments", "_run_complementarity", "seed"),
    ("experiments", "<lambda>", "values"),  # Experiment.check's default
}


def _parameters(node) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def _reads(node) -> set[str]:
    body = node.body if isinstance(node.body, list) else [node.body]
    return {
        n.id
        for stmt in body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def unread_parameters(source: str, module: str) -> list[tuple[str, str, str]]:
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        params = _parameters(node)
        if isinstance(parents.get(node), ast.ClassDef) and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        reads = _reads(node)
        found += [(module, name, p) for p in params if p not in reads]
    return found


def test_checker_flags_an_unread_parameter():
    source = "def f(a, b):\n    return a\n\ng = lambda x, y: y\n"
    assert unread_parameters(source, "m") == [("m", "f", "b"), ("m", "<lambda>", "x")]


def test_every_parameter_is_read():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unread_parameters(path.read_text(), path.stem)
    assert [f for f in found if f not in REGISTRY_INTERFACE] == []
    # every listed exception still applies, so the list stays exact
    assert REGISTRY_INTERFACE <= set(found)


def read_keys(func) -> set[str]:
    """The constant keys func reads from its first parameter, as p["key"]."""
    node = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    values = node.args.args[0].arg
    return {
        n.slice.value
        for n in ast.walk(node)
        if isinstance(n, ast.Subscript)
        and isinstance(n.value, ast.Name)
        and n.value.id == values
        and isinstance(n.slice, ast.Constant)
    }


def test_key_reader_sees_subscripts_only():
    def run(p, seed):
        q = {"c": 1}
        return p["a"], p[seed], q["c"]

    assert read_keys(run) == {"a"}


def test_every_config_key_is_read_by_its_runner():
    for name, exp in EXPERIMENTS.items():
        assert read_keys(exp.run) == set(exp.fields), name


# (module, function, parameter) triples allowed one value, each with the
# reason it stays a parameter.
ONE_VALUED: dict[tuple[str, str, str], str] = {}

# A call argument that is not a literal or a module constant: a runtime
# value, so the parameter counts as varied.
VARIES = "<varies>"


def _constants(tree) -> dict[str, ast.Constant]:
    """The module-level NAME = literal assignments of a module."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name):
            try:
                found[target.id] = ast.Constant(ast.literal_eval(value))
            except ValueError:
                pass
    return found


class _Substitute(ast.NodeTransformer):
    def __init__(self, constants):
        self.constants = constants

    def visit_Name(self, node):
        return self.constants.get(node.id, node)


def _literal(expr, constants) -> str | None:
    """repr of expr's value with module constants substituted; None if not a literal."""
    try:
        return repr(ast.literal_eval(_Substitute(constants).visit(copy.deepcopy(expr))))
    except ValueError:
        return None


def _defaulted(func, method: bool) -> dict[str, tuple[int | None, ast.expr]]:
    """Parameter -> (index among a call's positional arguments, default)."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {
        arg.arg: (first + i - method, default)
        for i, (arg, default) in enumerate(zip(positional[first:], args.defaults))
    }
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[arg.arg] = (None, default)
    return out


def _called_name(call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def one_valued_parameters(
    library: dict[str, str], callers: dict[str, str]
) -> dict[tuple[str, str, str], set[str]]:
    """(module, function, parameter) -> values, for each defaulted parameter
    of a library function that fewer than two values reach.

    library and callers map module names to source; the calls are read from
    both.  Calls match functions by name, so a call of a same-named
    function elsewhere can only make a parameter look varied.  A method,
    called on an instance or a class, skips its self or cls.
    """
    calls = {}
    for source in [*callers.values(), *library.values()]:
        tree = ast.parse(source)
        constants = _constants(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _called_name(node)):
                calls.setdefault(name, []).append((node, constants))
    found = {}
    for module, source in library.items():
        tree = ast.parse(source)
        constants = _constants(tree)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(parents.get(func), ast.ClassDef)
            for param, (index, default) in _defaulted(func, method).items():
                values = set()
                for call, call_constants in calls.get(func.name, []):
                    unpacked = any(isinstance(a, ast.Starred) for a in call.args) or any(
                        k.arg is None for k in call.keywords
                    )
                    passed = [k.value for k in call.keywords if k.arg == param]
                    if index is not None and index < len(call.args):
                        passed.append(call.args[index])
                    if unpacked:
                        values.add(VARIES)
                    elif passed:
                        values.add(_literal(passed[0], call_constants) or VARIES)
                    else:
                        # evaluated once, where the function is defined
                        values.add(_literal(default, constants) or ast.unparse(default))
                if VARIES not in values and len(values) < 2:
                    found[(module, func.name, param)] = values
    return found


def test_checker_flags_a_one_valued_parameter():
    library = (
        "N = 3\n"
        "def f(a, b=1, *, c=N, d=0):\n    return a, b, c, d\n"
        "def g(x=1):\n    return x\n"
        "def h(z=0):\n    return z\n"
        "class K:\n    def m(self, w=0):\n        return w\n"
    )
    callers = "f(0)\nf(1, 2, c=3)\nf(2, d=N)\ng(y)\nK().m(0)\nK().m(1)\n"
    assert one_valued_parameters({"lib": library}, {"use": callers}) == {
        ("lib", "f", "c"): {"3"},
        ("lib", "h", "z"): set(),
    }


def test_every_default_is_overridden():
    library = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {p.stem: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    found = one_valued_parameters(library, callers)
    assert {k: v for k, v in found.items() if k not in ONE_VALUED} == {}
    # every listed exception still applies, so the list stays exact
    assert set(ONE_VALUED) <= set(found)
