import ast
import sys
from pathlib import Path

import gsetbench

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gsetbench"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    # scipy or networkx may be installed where the tests run, so an
    # import of one would pass every other test
    sources = sorted(Path(gsetbench.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {m}" for m in modules
                      if m.partition(".")[0] not in ALLOWED]
    assert not stray
