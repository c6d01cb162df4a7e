"""scripts/kernel_shapes.py runs at toy size and prints its table."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_shapes.py"


def test_kernel_shapes_prints_one_line_per_shape_and_kind(capsys):
    spec = importlib.util.spec_from_file_location("kernel_shapes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--toy", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    batches = sum(len(sizes) for _, sizes, _, _ in module.TOY_SHAPES)
    assert len(lines) == 2 * batches
    fields = [line.split() for line in lines]
    assert {f[2] for f in fields} == {"trial-major", "trial-minor"}
    assert {f[3] for f in fields} == {"simulated_annealing", "greedy_local_search"}
    assert all(f[-1] == "ns/update" and float(f[-2]) > 0 for f in fields)
