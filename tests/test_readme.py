"""README's examples run as written.

Every ```python block runs, in order and in one namespace (a later block uses
names an earlier one defines), and every ``picgof`` command of every ```sh
block runs in-process through ``picgof.cli.main`` and exits 0.  Both run in a
fresh working directory, where the commands write and read their own files.
"""

import re
import shlex
from pathlib import Path

from picgof.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def blocks(language):
    return [body for lang, body in BLOCK.findall(README.read_text("utf-8")) if lang == language]


def is_skipped(argv):
    """Installing, running the suite and the reproduction scripts are not
    examples of the package."""
    return argv[0] in ("pip", "pytest") or (argv[0] == "python" and argv[1].startswith("scripts/"))


def commands():
    out = []
    for body in blocks("sh"):
        for line in body.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if not argv or is_skipped(argv):
                continue
            assert argv[0] == "picgof", f"README runs a command this test cannot: {line}"
            out.append(argv[1:])
    return out


def test_python_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    examples = blocks("python")
    assert examples
    for code in examples:
        exec(compile(code, str(README), "exec"), namespace)


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = commands()
    assert examples
    for argv in examples:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
