"""Every module-level function and class in src/sdgpb is named somewhere in
src/ besides its own definition: a definition that nothing names is dead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sdgpb"

ALLOWED = {
    # a cell's share over the global share, a statistic of the paper's
    # figures; the report does not draw it yet (ROADMAP item 6)
    "analytics.ratio_to_global",
}


def _is_click_command(node: ast.AST) -> bool:
    """Decorated with `@<group>.command(...)`, `@click.command(...)` or
    `@click.group(...)`: click registers it, nothing names it."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _unnamed_definitions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
        and not _is_click_command(node)
    }


def test_every_module_level_definition_is_named():
    assert _unnamed_definitions() == ALLOWED
