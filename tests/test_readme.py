"""The README's library example runs as written."""

import re
from pathlib import Path

from slascore import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    for folder, seed in (("dev", "1"), ("eval", "2")):
        assert cli.main(["synth", "--n-speakers", "40", "--preset", "heteroscedastic",
                         "--seed", seed, "--out-dir", str(tmp_path / folder)]) == 0
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(blocks[0], names)
    assert len(names["overall"]) == 40
    assert names["report"].n == len(names["eval_split"]) == 160
