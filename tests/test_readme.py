"""The README's examples run as written: each `$ vndim ...` line prints the
lines under it byte for byte, and the Library block executes."""

import re
import shlex
from pathlib import Path

from vndim.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


def cli_examples():
    """(argv, expected stdout) for every `$ vndim` line in the README."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            program, *argv = shlex.split(command)
            assert program == "vndim", command
            examples.append((argv, output.rstrip("\n") + "\n"))
    return examples


def test_readme_cli_examples(capsys):
    examples = cli_examples()
    assert len(examples) >= 4
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_readme_library_block():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
