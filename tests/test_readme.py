"""The README's Python examples and command lines run as written and print what it says."""

import re
import shlex
from pathlib import Path

from spintransfer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert round(namespace["window"], 4) == 3.2852
    assert namespace["res"].intervals == ((2.33, 2.54), (2.62, 6.08))


def test_readme_command_lines_run(tmp_path, capsys):
    # the shell block of the command-line section, continuation lines joined
    # and every --out redirected into tmp_path
    (block,) = re.findall(r"^```\n(spintransfer .*?)^```", README.read_text(), flags=re.S | re.M)
    printed = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, line
        out, err = capsys.readouterr()
        assert not err, line
        printed[argv[0]] = out
    assert list(printed) == ["simulate", "entangle", "sweep", "peaks", "verify"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["neg.csv", "probs.csv", "sweep.csv"]
    assert printed["sweep"] == "HPST interval: [2.33, 2.54]\nHPST interval: [2.62, 6.08]\n"
    assert printed["verify"].count(" PASS\n") == 4 and "FAIL" not in printed["verify"]
