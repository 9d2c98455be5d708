"""README's library tour runs, and its code gives the values its
comments state."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def stated_values(block, namespace):
    """``(comment, value)`` for each line of ``block`` whose comment
    states a value: a Python literal, compared with the line's
    expression or its assignment's targets, or ``N extremal
    densities``, compared with the length of its target."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if not code.strip() or not comment:
            continue
        stmt = ast.parse(code.strip()).body[0]
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt
        value = eval(ast.unparse(target), namespace)
        count = re.fullmatch(r"(\d+) extremal densities", comment)
        if count:
            yield int(count[1]), len(value)
            continue
        try:
            yield ast.literal_eval(comment), value
        except (ValueError, SyntaxError):
            pass


def test_the_library_tour_gives_the_values_it_states():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    checked = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for want, got in stated_values(block, namespace):
            assert got == want
            checked.append(want)
    assert checked == [198, (198, 3), (1, 100), 32372, (26, 100), 1.0,
                       True, 57]
