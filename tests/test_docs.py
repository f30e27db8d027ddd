import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^## Library quickstart\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library quickstart", "exec"), {})
