"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def overview_block() -> str:
    """The Python block under the README's "Library overview" heading."""
    section = README.read_text().split("## Library overview", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_overview_runs_and_its_sunflower_comment_holds():
    block = overview_block()
    scope: dict = {}
    exec(block, scope)  # every line of the overview runs
    line = next(line for line in block.splitlines() if line.startswith("sl.find_sunflower("))
    call, comment = (part.strip() for part in line.split("#", 1))
    assert comment == "Sunflower(core=(1,), member_indices=(0, 1, 2))"
    assert repr(eval(call, scope)) == comment
