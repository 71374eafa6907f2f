"""Every top-level function and class in src/semrank, private ones too, is
reached by the program: some other part of src/semrank, or the benchmark in
perfbench/, names it. Code only the tests call is deleted, unless it is
listed below with the test that needs it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "semrank").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# name -> the tests that keep it, for which the program has no use
TEST_ONLY = {
    "policy.forward_logits": "the single-context reference (test_policy)",
    "dataprep.shingle_jaccard": "the dedup oracle (test_dataprep)",
    "trainer.sft_loss": "the loss measurement (test_trainer)",
}

# a string naming a program object, as perfbench's wrap points do
# ("policy.sample_sequence"); prose such as docstrings does not match
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node: ast.AST) -> set[str]:
    """Every identifier node refers to: names, attributes, imported names
    and dotted-name strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _DOTTED.fullmatch(sub.value):
            out.update(sub.value.split("."))
    return out


def _unreferenced() -> set[str]:
    """module.name of each top-level def or class that no top-level statement
    but its own definition refers to."""
    statements = []  # (path, top-level statement, the names it refers to)
    for path in PROGRAM + BENCHMARK:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path, stmt, _names(stmt)))
    unreferenced = set()
    for path, stmt, _ in statements:
        if path not in PROGRAM or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for _, other, names in statements
                   if other is not stmt):
            unreferenced.add(f"{path.stem}.{stmt.name}")
    return unreferenced


def test_every_public_definition_is_reached_by_the_program():
    uncalled = sorted(_unreferenced() - set(TEST_ONLY))
    assert uncalled == [], (
        f"{uncalled}: no code in src/semrank or perfbench refers to these; "
        "delete them with their tests, or wire them in")


def test_every_test_only_entry_is_still_test_only():
    assert sorted(set(TEST_ONLY) - _unreferenced()) == [], (
        "the program now refers to these, or they are gone: drop them from TEST_ONLY")
