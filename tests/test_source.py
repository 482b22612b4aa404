import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sclab").glob("*.py"))

# the arithmetic is exact: no module takes a float from its data
_FLOAT_CALLS = {"log", "log2", "log10", "sqrt", "exp", "pow"}


def _found(matches) -> list[str]:
    """file:line of every syntax node in the package that ``matches``."""
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if matches(node)
    ]


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so a guard written as one is no guard
    assert SOURCES
    assert _found(lambda node: isinstance(node, ast.Assert)) == []


def _float_call(node) -> bool:
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
