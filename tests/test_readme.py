"""README's examples, run: the "Library in one breath" block, and the
``polygraph fill``, ``eq`` and ``complete`` sessions on README's
``braid.pg`` and ``xyx.pg``, whose output must be what README shows.

``braid.pg`` is the presentation README gives under "Presentations";
``xyx.pg`` is the one the library block parses, the single rule
``alpha: x y x => y y`` that README describes for it.
"""

import re
import shlex
from pathlib import Path

import pytest

from polygraph.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
LIBRARY = re.search(r"## Library in one breath\n\n```python\n(.*?)^```", README, re.M | re.S)[1]
FILES = {
    "braid.pg": re.search(r"A monoid presentation \(the three-strand.*?```\n(.*?)^```",
                          README, re.M | re.S)[1],
    "xyx.pg": re.search(r'parse_polygraph\("""\n(.*?)"""\)', LIBRARY, re.S)[1],
}


def sessions():
    """(command line, output lines) for each ``$ polygraph`` line of README's
    shell blocks: its output runs to the next blank line, prompt or fence."""
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        lines = None
        for line in block.splitlines():
            if line.startswith("$ polygraph "):
                lines = []
                out.append((line[len("$ polygraph "):], lines))
            elif not line:
                lines = None
            elif lines is not None:
                lines.append(line)
    return out


SHOWN = [(command, lines) for command, lines in sessions()
         if command.split()[0] in ("fill", "eq", "complete")]


def test_library_in_one_breath():
    exec(compile(LIBRARY, "README.md", "exec"), {})


def test_every_shown_command_is_found():
    assert [command.split()[0] for command, _ in SHOWN] == ["fill", "eq", "complete"]


@pytest.mark.parametrize("command, lines", SHOWN, ids=[c.split()[0] for c, _ in SHOWN])
def test_shown_output(command, lines, tmp_path, monkeypatch, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
