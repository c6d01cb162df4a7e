"""Toolkit for sparse weighted Max-Cut / Ising benchmarks in the Gset family.

The package covers the full loop of working with these benchmarks:

* parsing and generating problem instances (`gsetbench.instances`),
* encoding/decoding solution bitstrings (`gsetbench.codec`),
* exact evaluation of cut values and Ising energies (`gsetbench.evaluate`),
* exhaustive optimum computation for small instances (`gsetbench.oracle`),
* baseline heuristic solvers (`gsetbench.solvers`),
* time-to-target benchmarking math (`gsetbench.metrics`),
* reproducible multi-trial campaigns (`gsetbench.campaign`),
* a command line front end (`gsetbench.cli`).
"""

from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus, parse_gset
from gsetbench.codec import decode_hex, encode_hex
from gsetbench.evaluate import cut_value, ising_energy, solution_quality

__all__ = [
    "ProblemInstance",
    "TorusSpec",
    "generate_torus",
    "parse_gset",
    "decode_hex",
    "encode_hex",
    "cut_value",
    "ising_energy",
    "solution_quality",
]

__version__ = "0.1.0"
