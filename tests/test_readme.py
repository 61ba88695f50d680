"""The README's examples run as printed.

Each `latinrect ...` line of the "Command line" block goes through
`cli.main` and must exit 0; each line of the "Library" block whose
comment starts with a value must evaluate to that value.
"""

import ast
import shlex
from pathlib import Path

import latinrect
from latinrect.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading):
    # the first fenced block after the heading, as a list of lines
    text = README.read_text()
    after = text[text.index(f"\n## {heading}\n"):]
    start = after.index("```")
    start = after.index("\n", start) + 1
    return after[start:after.index("```", start)].splitlines()


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # a temporary working directory takes the files the examples write
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in _block("Command line")]
    commands = [argv for argv in commands if argv and argv[0] == "latinrect"]
    assert len(commands) >= 9
    for argv in commands:
        code = main(argv[1:])
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        assert captured.err == "", argv
    assert (tmp_path / "out.csv").read_text().startswith("k,n,terms,")


def test_library_examples_give_their_values():
    checked = 0
    for line in _block("Library"):
        code, sep, comment = line.partition("  # ")
        if not sep:
            continue
        token = comment.split()[0].rstrip(",")
        try:
            expected = ast.literal_eval(token)
        except (ValueError, SyntaxError):
            continue
        assert eval(code, {"lr": latinrect}) == expected, line
        checked += 1
    assert checked >= 6
