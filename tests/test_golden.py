"""Output bytes pinned against files in tests/golden/.

Every file a run writes is compared byte for byte; its stdout and stats row
are compared with the timing figures masked. To regenerate after an
intended output change: `PYTHONPATH=src python tests/test_golden.py`.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from protocheck import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (exit code, run argv, output options; each writes <name><suffix>)
RUNS = {
    "barrier_n3_release_on_barrier_in": (
        1,
        ["--model", "barrier", "--size", "3", "--mutation", "release_on_barrier_in"],
        ("trace", "graph", "stats"),
    ),
    "ring_unordered_n3_cap1": (
        2,
        ["--model", "ring", "--size", "3", "--variant", "unordered",
         "--queue-capacity", "1"],
        ("trace",),
    ),
    # fully explored, so the graph holds every stored state and fired transition
    "ring_unordered_n3_dfs": (
        0,
        ["--model", "ring", "--size", "3", "--variant", "unordered", "--search", "dfs"],
        ("graph", "stats"),
    ),
}

_SUFFIX = {"trace": ".txt", "graph": ".dot", "stats": ".tsv"}


def _mask_timing(text: str) -> str:
    text = re.sub(r"elapsed: \d+\.\d+ s", "elapsed: <t> s", text)
    # the stats row's "time (s)" column
    return re.sub(r"^([^\t\n]*\t[^\t\n]*\t[^\t\n]*\t)\d+\.\d+\t", r"\1<t>\t", text,
                  flags=re.M)


def _run(name: str, out_dir: Path) -> tuple[int, dict[str, bytes]]:
    """Run `name` writing into `out_dir`: its exit code and outputs by file name."""
    _, argv, outputs = RUNS[name]
    for opt in outputs:
        argv = argv + [f"--{opt}", str(out_dir / (name + _SUFFIX[opt]))]
    with redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["run"] + argv)
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    files[name + ".stdout"] = stdout.getvalue().replace(str(out_dir), "OUT").encode()
    for file_name in (name + ".stdout", name + ".tsv"):
        if file_name in files:
            files[file_name] = _mask_timing(files[file_name].decode()).encode()
    return code, files


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_bytes(name, tmp_path):
    code, files = _run(name, tmp_path)
    assert code == RUNS[name][0]
    expected = sorted(p.name for p in GOLDEN.glob(name + ".*"))
    assert sorted(files) == expected
    for file_name in expected:
        assert files[file_name] == (GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.txt.json")))
def test_committed_traces_replay(name, capsys):
    # traces an older commit wrote must stay replayable: the header keys and
    # the JSON state form are a file format
    assert cli.main(["replay", str(GOLDEN / name)]) == 0
    assert "confirmed" in capsys.readouterr().out


if __name__ == "__main__":
    import tempfile

    for golden_name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            _, outputs = _run(golden_name, Path(tmp))
        for file_name, data in outputs.items():
            (GOLDEN / file_name).write_bytes(data)
