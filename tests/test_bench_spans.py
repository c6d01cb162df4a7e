import ast
import importlib
import inspect
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# the SpanIndex lookups, and the helper over them, whose first argument
# is a span name
SPAN_READERS = {"mean_duration", "by_name", "ancestor_named", "sum_attr"}


def span_names_read(tree):
    """The span names bench/run.py hooks or looks up, with their lines."""
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "hooks" for t in node.targets)):
            names += [(key.value, key.lineno) for key in node.value.keys]
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in SPAN_READERS:
                names += [(arg.value, arg.lineno) for arg in node.args
                          if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                          and arg.value.count(".") == 1]
    return names


def test_every_span_the_bench_reads_names_a_public_function():
    # a span is recorded only for a public function of a gsetbench module,
    # so a renamed one leaves its per-layer metrics at zero without a failure
    names = span_names_read(ast.parse(BENCH_RUN.read_text()))
    assert {"solvers.run_trial", "campaign.run_campaign"} <= {name for name, _ in names}
    wrong = []
    for name, lineno in names:
        module_name, _, function_name = name.partition(".")
        module = importlib.import_module(f"gsetbench.{module_name}")
        function = getattr(module, function_name, None)
        if (function_name.startswith("_") or not inspect.isfunction(function)
                or function.__module__ != module.__name__):
            wrong.append(f"run.py:{lineno}: {name}")
    assert not wrong
