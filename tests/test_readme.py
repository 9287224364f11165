"""The README's Python examples run as written and print what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert round(namespace["window"], 4) == 3.2852
    assert namespace["res"].intervals == ((2.33, 2.54), (2.62, 6.08))
