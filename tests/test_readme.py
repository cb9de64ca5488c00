"""The README's "Library quick start" block runs, and gives what its
comments say."""
import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _stated(comment: str):
    """The Python literal a comment opens with, ended by the comment's end
    or a ":" ("True: mp and ..."); None if it opens with none."""
    for end in range(len(comment), 0, -1):
        if end < len(comment) and comment[end] != ":":
            continue
        try:
            return ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            pass
    return None


def test_quick_start_gives_what_its_comments_state():
    block = _quick_start()
    lines = block.splitlines()
    ns: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            value = ns[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        # the comment after the statement, on its last line or alone on the next
        rest = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not rest and stmt.end_lineno < len(lines):
            rest = lines[stmt.end_lineno].strip()
        if rest.startswith("#"):
            stated = _stated(rest[1:].strip())
            if stated is not None:
                assert value == stated, ast.get_source_segment(block, stmt)
                checked.append(stated)
    assert checked == [
        ["001", "110"],
        ["d11", "11d"],
        ["111", "d11", "011", "0d1", "001"],
        "111111111",
        "reachable",
        True,
    ]
    # the one claim in words
    assert "9-component Boolean net" in block and ns["ext"].n == 9
