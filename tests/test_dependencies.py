import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_exception_the_package_defines_is_a_value_error():
    # cli.main turns a ValueError or OSError into "error: ..." and exit 1;
    # any other refusal type would escape it as a traceback
    defined = [obj for info in pkgutil.iter_modules(gsetbench.__path__)
               for obj in vars(importlib.import_module(f"gsetbench.{info.name}")).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__.startswith("gsetbench.")]
    assert {cls.__name__ for cls in defined} >= {"GsetFormatError", "HexDecodeError"}
    assert [cls for cls in defined if not issubclass(cls, ValueError)] == []


def test_trials_load_no_numpy_random_generator():
    # a trial's stream is the package's own SplitMix64, so running one
    # must not load numpy.random, whose generators' internals may change
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from gsetbench.instances import ProblemInstance\n"
        "from gsetbench.solvers import default_config, run_trials\n"
        "inst = ProblemInstance(4, [(1, 2, 1), (2, 3, -1), (3, 4, 2), (4, 1, 1)])\n"
        "for kind in ('greedy_local_search', 'simulated_annealing'):\n"
        "    assert run_trials(inst, default_config(kind, 5), [1, 2, 3]).best_cuts.shape == (3,)\n"
        "print(eager, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(gsetbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    eager, loaded = run.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"


def test_the_environment_variables_read_are_those_readme_lists():
    # a variable read but not listed, or listed but no longer read, is a
    # drift between the docs and the code
    read = set()
    for path in sorted(Path(gsetbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "os.environ.get"
                    and isinstance(node.args[0], ast.Constant)):
                read.add(node.args[0].value)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE))
    assert read == listed == {"GSET_DIR", "GSETBENCH_SOLUTIONS_DIR"}
