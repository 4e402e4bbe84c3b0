"""The README's library example and CLI walkthrough run as written."""

import re
import shlex
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


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Each ``slascore`` command of the README's CLI block exits 0, and the
    block shows every subcommand."""
    block, = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
              if "slascore " in b]
    commands = [argv for line in block.replace("\\\n", " ").splitlines()
                if (argv := shlex.split(line, comments=True))]
    assert {argv[0] for argv in commands} == {"slascore"}
    subcommands = re.search(r"\{(.*?)\}", cli.build_parser().format_usage()).group(1)
    assert {argv[1] for argv in commands} == set(subcommands.split(","))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.csv").write_text("name,rmse,pcc,src,within_half,within_one\n"
                                       "NTNU SMIL V (2),0.375,0.820,0.827,82.7,99.3\n")
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, argv
    assert capsys.readouterr().out.splitlines()[-1] == (
        "NTNU SMIL V (2)      0.375 0.820 0.827 82.7 99.3")
