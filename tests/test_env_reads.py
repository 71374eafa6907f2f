"""Only the CLI reads the environment. Every other module of src/semrank
takes its settings as arguments, so a library caller passes each one, and
the SEMRANK_* variables have one reader."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semrank"
_READERS = ("environ", "getenv", "environb", "getenvb")


def _env_reads(path: Path) -> list[int]:
    """Line numbers where path names os.environ or os.getenv, as an
    attribute or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in _READERS for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_only_the_cli_reads_the_environment():
    readers = {path.name: _env_reads(path) for path in sorted(SRC.glob("*.py"))
               if path.name != "cli.py"}
    assert {name: lines for name, lines in readers.items() if lines} == {}, (
        "these modules read the environment; take the value as an argument "
        "and read it in cli.py")


def test_the_scan_sees_the_cli_reads():
    assert _env_reads(SRC / "cli.py")
