"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = library_block()
    promised = re.findall(r"#\s*(.+?)\s*$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert promised == ["(-1) e1", "(-1)"]
    assert out.getvalue().splitlines() == promised
