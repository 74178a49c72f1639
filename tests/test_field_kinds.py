"""Every field kind the CLI checks is used, and every kind used is checked.

cli._check_type and cli._check_scalar dispatch on a field's kind string.
A branch for a kind that no field spec uses can never run, and a spec
whose kind has no branch fails only once a config sets that field.  This
test parses cli.py and requires the kinds the two checkers compare
against to equal the kinds the parser hands them: the types of the
optimizer fields, of the list items, of every EXPERIMENTS field, and of
the common fields that parse_config checks by kind.  The other common
fields, schema_version and experiment, are matched by value (the one
schema version, a registry name), never by kind.
"""
import ast
from pathlib import Path

from asymmbench import cli
from asymmbench.experiments import EXPERIMENTS

CHECKERS = ("_check_type", "_check_scalar")


def _tree() -> ast.Module:
    return ast.parse(Path(cli.__file__).read_text())


def compared_kinds(tree: ast.Module) -> set[str]:
    """The kinds the checkers compare `kind` against: string constants, or a named table's keys."""
    found = set()
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in CHECKERS):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)):
                continue
            if node.left.id != "kind":
                continue
            for comp in node.comparators:
                if isinstance(comp, ast.Name):
                    found |= set(getattr(cli, comp.id))
                    continue
                items = comp.elts if isinstance(comp, ast.Tuple) else [comp]
                found |= {c.value for c in items if isinstance(c, ast.Constant)}
    return found


def kinds_by_constant(tree: ast.Module) -> dict[str, str]:
    """{field: kind} for each checker call that names its field and kind as constants."""
    found = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in CHECKERS
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[2], ast.Constant)
        ):
            found[node.args[0].value] = node.args[2].value
    return found


def test_common_fields_checked_by_kind_use_their_spec():
    by_constant = kinds_by_constant(_tree())
    assert by_constant == {"seed": "nonnegative_int"}
    for name, kind in by_constant.items():
        assert cli._COMMON_FIELDS[name]["type"] == kind


def test_checked_kinds_are_exactly_the_used_kinds():
    used = {spec["type"] for spec in cli._OPTIMIZER_FIELDS.values()}
    used |= {item for item, _ in cli._LIST_KINDS.values()}
    used |= {spec["type"] for exp in EXPERIMENTS.values() for spec in exp.fields.values()}
    used |= {cli._COMMON_FIELDS[name]["type"] for name in kinds_by_constant(_tree())}
    assert compared_kinds(_tree()) == used


def test_kind_reader_sees_constants_and_tables():
    source = (
        "def _check_scalar(name, value, kind):\n"
        "    if kind == 'a' or kind in ('b', 'c') or kind in _LIST_KINDS:\n"
        "        return other == 'd'\n"
    )
    assert compared_kinds(ast.parse(source)) == {"a", "b", "c"} | set(cli._LIST_KINDS)
