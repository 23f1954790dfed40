"""The README's examples run: every command line parses, the library block passes."""

import re
import shlex
from pathlib import Path

from shufflemix.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _command_lines():
    for _, body in BLOCKS:
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["shufflemix"] and "--manifest" not in words:
                yield words[1:]


def test_readme_command_lines_parse():
    lines = list(_command_lines())
    assert lines
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv)


def test_readme_library_block_runs():
    section = README.split("## Library", 1)[1]
    body = next(body for lang, body in BLOCKS if lang == "python" and body in section)
    exec(compile(body, "README.md", "exec"), {})
