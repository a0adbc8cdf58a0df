"""README's library example prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_output_matches_comments():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
