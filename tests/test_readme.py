"""The README's quick-start block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    quick_start = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(v) >= 0 for v in printed)
