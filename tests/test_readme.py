"""The README's command-line example runs as written: its commands in
order, each printing exactly the comment lines right under it."""

import pathlib
import shlex

from jetlab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def example_commands() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) of each command in the README's sh block of
    jetlab commands, continuation lines joined.  A comment line after a
    blank line describes the command below it; one right under a command,
    or under that command's other comment lines, is a line it prints."""
    blocks = [b.split("```")[0]
              for b in README.read_text().split("```sh\n")[1:]]
    block = next(b for b in blocks if "\njetlab " in b)
    commands, printed = [], None
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("jetlab "):
            printed = []
            commands.append((shlex.split(line)[1:], printed))
        elif not line:
            printed = None
        elif printed is not None:
            assert line.startswith("# "), line
            printed.append(line[2:])
    return commands


def test_readme_example_prints_what_it_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = example_commands()
    assert [argv[0] for argv, _ in commands] == [
        "domain", "field", "hestenes", "hestenes", "extend", "space",
        "certify", "replay", "certify"]
    for argv, printed in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv
