"""README's library examples and command lines run as written."""

import re
import shlex
from pathlib import Path

from protocheck import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # later blocks use names the earlier ones bind, so all share one
    # namespace; a file a block writes lands in tmp_path
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "Verdict.VERIFIED 2057\n"
    assert (tmp_path / "states.dot").read_text(encoding="utf-8").startswith("digraph reachable {\n")


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # each `protocheck ...` line, continuations joined, through cli.main; the
    # trace, graph and stats files land in tmp_path
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "protocheck" for argv in commands)
    monkeypatch.chdir(tmp_path)
    assert [cli.main(argv[1:]) for argv in commands] == [0, 0, 1, 0]
    assert "replay OK: 3 steps verified, invariant_violated confirmed" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cex.json", "states.dot", "stats.tsv"]
