"""Every function parameter and every config key is read.

A parameter that its body never reads is an option with no effect: a
caller can set it and nothing changes.  This test parses the package
source and fails on any such parameter.  The only exceptions are the
experiment registry's calling conventions, listed below: every runner
is called as run(values, seed) and every check as check(values),
whether or not that runner or check needs the argument.

The same holds one level up: each config key an EXPERIMENTS entry lists
must be read by that entry's runner, as values["key"].

A parameter that every caller sets to a single value has no effect
either, whether it has a default or not: the value is a constant of the
library, and belongs beside the check that reads it.  The last test
scans every call in the package and in perfbench/ and requires each
package parameter to receive at least two values, counting literals,
module constants and arithmetic on them as fixed values.
"""
import ast
import copy
import inspect
import operator
import textwrap
from pathlib import Path

from asymmbench.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymmbench"

# (module, function, parameter) triples allowed to go unread.
REGISTRY_INTERFACE = {
    ("experiments", "_run_degradation", "seed"),
    ("experiments", "_run_nonadditivity", "seed"),
    ("experiments", "_run_irrev", "seed"),
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
    """The module-level NAME = literal assignments of a module, arithmetic
    on literals and earlier constants included."""
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
                found[target.id] = ast.Constant(_value(value, found))
            except ValueError:
                pass
    return found


_ARITHMETIC = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


class _Fold(ast.NodeTransformer):
    """Substitutes module constants, then folds arithmetic on constants."""

    def __init__(self, constants):
        self.constants = constants

    def visit_Name(self, node):
        return self.constants.get(node.id, node)

    def _fold(self, node, op, *operands):
        self.generic_visit(node)
        operands = [getattr(node, name) for name in operands]
        if type(op) in _ARITHMETIC and all(isinstance(x, ast.Constant) for x in operands):
            try:
                return ast.Constant(_ARITHMETIC[type(op)](*(x.value for x in operands)))
            except (TypeError, ArithmeticError):
                pass
        return node

    def visit_BinOp(self, node):
        return self._fold(node, node.op, "left", "right")

    def visit_UnaryOp(self, node):
        return self._fold(node, node.op, "operand")


def _value(expr, constants):
    """expr's value with module constants substituted and arithmetic folded;
    raises ValueError if it is not a literal."""
    return ast.literal_eval(_Fold(constants).visit(copy.deepcopy(expr)))


def _literal(expr, constants) -> str | None:
    """repr of expr's value (see _value); None if not a literal."""
    try:
        return repr(_value(expr, constants))
    except ValueError:
        return None


def _signature(func, method: bool) -> dict[str, tuple[int | None, ast.expr | None]]:
    """Parameter -> (index among a call's positional arguments, default or None)."""
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    out = {
        arg.arg: (i - method, default)
        for i, (arg, default) in enumerate(zip(positional, defaults))
        if i >= method
    }
    out.update({arg.arg: (None, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults)})
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
    """(module, function, parameter) -> values, for each parameter of a
    library function that fewer than two values reach: a defaulted one
    (its default counts where a call leaves it out), or one without a
    default that at least one call passes.

    library and callers map module names to source; the calls are read from
    both.  Calls match functions by name, so a call of a same-named
    function elsewhere can only make a parameter look varied; a call that
    leaves out a parameter without a default is such a call.  A method,
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
            for param, (index, default) in _signature(func, method).items():
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
                    elif default is None:
                        values.add(VARIES)
                    else:
                        # evaluated once, where the function is defined
                        values.add(_literal(default, constants) or ast.unparse(default))
                if VARIES not in values and len(values) < 2 and (values or default):
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


def test_checker_flags_a_one_valued_parameter_without_default():
    # a parameter without a default, and arithmetic on literals and module
    # constants, which literal_eval alone refuses
    library = (
        "TOL = 0.5\n"
        "def f(a, tol):\n    return a, tol\n"
        "def g(b):\n    return b\n"
        "def h(c=2 * TOL):\n    return c\n"
        "def u(x):\n    return x\n"
    )
    callers = "S = 0.25\nf(0, 200 * S)\nf(-1, 50.0)\ng(1)\ng(z=1)\nh()\nh(1.0)\n"
    assert one_valued_parameters({"lib": library}, {"use": callers}) == {
        ("lib", "f", "tol"): {"50.0"},
        ("lib", "h", "c"): {"1.0"},
    }


def test_every_default_is_overridden():
    library = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {p.stem: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    found = one_valued_parameters(library, callers)
    assert {k: v for k, v in found.items() if k not in ONE_VALUED} == {}
    # every listed exception still applies, so the list stays exact
    assert set(ONE_VALUED) <= set(found)
