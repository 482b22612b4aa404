import ast
import functools
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sclab").glob("*.py"))

# the arithmetic is exact: no module takes a float from its data
_FLOAT_CALLS = {"log", "log2", "log10", "sqrt", "exp", "pow"}


def _found(matches) -> list[str]:
    """file:line of every syntax node in the package that ``matches``, which
    is called with the node and its module's tree."""
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for tree in [ast.parse(path.read_text(encoding="utf-8"), str(path))]
        for node in ast.walk(tree)
        if matches(node, tree)
    ]


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so a guard written as one is no guard
    assert SOURCES
    assert _found(lambda node, tree: isinstance(node, ast.Assert)) == []


def _float_call(node, tree) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "float"
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
        and func.attr in _FLOAT_CALLS
    )


def test_no_floating_point_calls():
    assert _found(_float_call) == []


@functools.cache
def _dead_imports(tree) -> frozenset:
    """The import aliases of a module whose bound name the module never
    reads and does not list in ``__all__``; ``from __future__`` imports are
    compiler directives and bind nothing."""
    nodes = list(ast.walk(tree))
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return frozenset(
        alias
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    )


def test_no_dead_imports():
    # a name left imported after the code that read it is gone
    assert _found(lambda node, tree: node in _dead_imports(tree)) == []


# cyclotomic imports rationals, so rationals reaches no field element, not
# even through a class attribute as CycElement._PRODUCT once was
_FIELD_NAMES = {"cyclotomic", "CycElement", "_PRODUCT", "_make"}


def _names(node) -> set:
    """The names a syntax node binds, reads or imports from."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_rationals_reaches_no_field_element():
    path = next(p for p in SOURCES if p.name == "rationals.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [node.lineno for node in ast.walk(tree) if _names(node) & _FIELD_NAMES] == []
