"""No function of the package calls itself, except the listed ones: a
recursive walk fails on deep enough input with RecursionError."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpunfold"

# module:qualified name, each still recursing one frame per level of its input
ALLOWED = {
    "bdd:DiagramManager._apply",
    "expr:variables",
    "oracle:_random_expr",
}


def _calls_itself(func) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == func.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == func.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                return True
    return False


def _self_recursive(tree, module):
    """module:qualified name of every function in tree that calls itself."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(child):
                    found.append(f"{module}:{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_detector_sees_bare_and_method_self_calls():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n"
        "    def m(self):\n        return self.m()\n"
        "    def other(self):\n        return self.m()\n"
        "def g():\n    def h():\n        return h()\n    return h()\n"
    )
    assert _self_recursive(tree, "mod") == ["mod:f", "mod:C.m", "mod:g.h"]


def test_only_the_listed_functions_recurse():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_self_recursive(ast.parse(path.read_text()), path.stem))
    assert found - ALLOWED == set()
    # a function taken off the list once it stops recursing
    assert ALLOWED - found == set()
