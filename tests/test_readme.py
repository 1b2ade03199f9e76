"""Every ```python block of README.md runs as it stands."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```", text,
                                   re.MULTILINE | re.DOTALL)]
    assert blocks
    for line, code in blocks:
        # pad so that a traceback names the README line
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
