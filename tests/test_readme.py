"""README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # later blocks use names the earlier ones bind, so all share one
    # namespace; a file a block writes lands in tmp_path
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "Verdict.VERIFIED 2057\n"
    assert (tmp_path / "states.dot").read_text().startswith("digraph reachable {\n")
