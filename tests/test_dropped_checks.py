"""Every check a runner computes is read.

A runner that calls a check and never reads part of its result has
computed a verdict and thrown it away: the report says nothing about it,
pass or fail.  This test parses experiments.py and fails when a function
calls a check (a function named *_check or is_*) and drops any part of
its result:

- the call is a bare statement;
- its result is bound to anything but a plain name;
- a scalar result's name is never read;
- a field of a structured result (a dataclass or named tuple, from the
  check's return annotation) is never read as name.field.

A read anywhere in the function counts: the rule cannot tell an assertion
from any other use, but it catches a value that nothing touches.
"""
import ast
import dataclasses
import typing
from pathlib import Path

from asymmbench import experiments

SOURCE = Path(experiments.__file__).read_text()


def _check_name(node) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name.endswith("_check") or name.startswith("is_"):
            return name
    return None


def _result_fields(check: str) -> tuple[str, ...] | None:
    """Field names of the check's return type; None for a scalar."""
    ret = typing.get_type_hints(getattr(experiments, check))["return"]
    if dataclasses.is_dataclass(ret):
        return tuple(f.name for f in dataclasses.fields(ret))
    return getattr(ret, "_fields", None)  # a NamedTuple


def dropped_checks(source: str) -> list[tuple[str, str, str]]:
    """(function, bound name or check, unread field or "") per dropped result."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        attrs = {
            (n.value.id, n.attr)
            for n in nodes
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and isinstance(n.ctx, ast.Load)
        }
        for stmt in nodes:
            if isinstance(stmt, ast.Expr) and (check := _check_name(stmt.value)):
                found.add((func.name, check, ""))
            if not isinstance(stmt, ast.Assign) or not (check := _check_name(stmt.value)):
                continue
            target = stmt.targets[0]
            if len(stmt.targets) > 1 or not isinstance(target, ast.Name):
                found.add((func.name, check, ""))
                continue
            fields = _result_fields(check)
            if fields is None:
                if target.id not in names:
                    found.add((func.name, target.id, ""))
            else:
                found |= {(func.name, target.id, f) for f in fields if (target.id, f) not in attrs}
    return sorted(found)


def test_guard_flags_each_way_to_drop_a_check():
    source = (
        "def run(ch, fam, dec, rho, sys, grid):\n"
        "    reduced = lemma4_reduced_form_check(ch, fam, dec)\n"
        "    ehrenfest_constancy_check(dec, rho, sys, grid)\n"
        "    unused = ehrenfest_constancy_check(dec, rho, sys, grid)\n"
        "    sym = is_symmetric_state(rho, sys)\n"
        "    return reduced.block_states, sym.ok\n"
    )
    assert dropped_checks(source) == [
        ("run", "ehrenfest_constancy_check", ""),
        ("run", "reduced", "residual"),
        ("run", "sym", "witness"),
        ("run", "unused", ""),
    ]


class _DropAssertion(ast.NodeTransformer):
    """Delete every Assertion(name, ...) from list displays."""

    def __init__(self, name: str):
        self.name = name

    def visit_List(self, node):
        self.generic_visit(node)
        node.elts = [
            e
            for e in node.elts
            if not (
                isinstance(e, ast.Call)
                and isinstance(e.func, ast.Name)
                and e.func.id == "Assertion"
                and isinstance(e.args[0], ast.Constant)
                and e.args[0].value == self.name
            )
        ]
        return node


def test_guard_catches_the_dropped_lemma4_residual():
    # A planted copy of the module without the Lemma 4 residual assertion:
    # the sweep still computes the residual, and nothing reads it.
    tree = _DropAssertion("lemma4_reduced_form").visit(ast.parse(SOURCE))
    planted = ast.unparse(tree)
    assert "reduced.residual" not in planted
    assert dropped_checks(planted) == [("run_no_broadcast_sweep", "reduced", "residual")]


def test_every_computed_check_is_read():
    assert dropped_checks(SOURCE) == []
