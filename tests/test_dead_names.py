"""Every module-level function, class and constant in src/sdgpb is named
somewhere in src/ besides its own definition: a definition that nothing
names is dead. Dunder names such as `__version__` are exempt."""

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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or a class
    that click does not register, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [] if _is_click_command(node) else [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        and not (name.id.startswith("__") and name.id.endswith("__"))
    ]


def _unnamed_definitions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if name not in named
    }


def test_every_module_level_definition_is_named():
    assert _unnamed_definitions() == ALLOWED
