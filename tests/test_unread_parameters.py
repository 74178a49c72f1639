"""Every function parameter and every config key is read.

A parameter that its body never reads is an option with no effect: a
caller can set it and nothing changes.  This test parses the package
source and fails on any such parameter.  The only exceptions are the
experiment registry's calling conventions, listed below: every runner
is called as run(values, seed) and every same_dim as same_dim(values),
whether or not that runner or check needs the argument.

The same holds one level up: each config key an EXPERIMENTS entry lists
must be read by that entry's runner, as values["key"].
"""
import ast
import inspect
import textwrap
from pathlib import Path

from asymmbench.experiments import EXPERIMENTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asymmbench"

# (module, function, parameter) triples allowed to go unread.
REGISTRY_INTERFACE = {
    ("experiments", "_run_nonadditivity", "seed"),
    ("experiments", "_run_ki", "seed"),
    ("experiments", "_run_complementarity", "seed"),
    ("experiments", "<lambda>", "values"),  # Experiment.same_dim's default
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
