"""The README's command-line example is what the command prints."""

import re
from pathlib import Path

from fracsub.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_gaps_example(tmp_path, monkeypatch, capsys):
    block = re.search(r"```sh\n(\$ cat or\.json\n.*?)```", README, re.S).group(1)
    shown = block.split("$ ")[1:]
    for cmd in shown[:2]:  # "cat NAME" followed by the file's one line
        first, _, content = cmd.partition("\n")
        (tmp_path / first.split()[1]).write_text(content)
    command, _, output = shown[2].partition("\n")
    assert command == "fracsub gaps or.json singles.json"
    report, human = output.rstrip("\n").rsplit("\n", 1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACSUB_TOL", raising=False)
    assert main(command.split()[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == human + "\n"
    assert captured.out == report + "\n"
