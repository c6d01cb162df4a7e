import ast
import re
from pathlib import Path

from gsetbench import cli

ROOT = Path(__file__).resolve().parents[1]


def documented_commands():
    """(file, line) of each command line that begins ``gsetbench `` in
    README.md's code blocks and in the docstrings of scripts/*.py."""
    texts = [("README.md", block) for block in
             re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)]
    for script in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append((f"scripts/{script.name}", ast.get_docstring(node) or ""))
    return [(name, line.strip()) for name, text in texts for line in text.splitlines()
            if line.strip().startswith("gsetbench ")]


def test_documented_commands_name_a_subcommand():
    commands = documented_commands()
    assert {name for name, _ in commands} >= {"README.md", "scripts/fetch_gset.py"}
    wrong = [f"{name}: {line}" for name, line in commands if line.split()[1] not in cli._NAMES]
    assert not wrong
