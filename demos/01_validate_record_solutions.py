#!/usr/bin/env python3
"""
Validating solution bitstrings against an instance.

The toolkit stores a configuration of n spins as a hex string (four
spins per digit, msb first, 1 = +1). This script walks the full
validation loop on a synthetic instance, then tries the three bundled
record bitstrings if you have the matching Gset files locally.

Run:
    python demos/01_validate_record_solutions.py
    GSET_DIR=/path/to/gset python demos/01_validate_record_solutions.py
"""

import os

from gsetbench.codec import HexDecodeError, decode_hex, encode_hex, read_solution
from gsetbench.evaluate import evaluate_solution
from gsetbench.instances import TorusSpec, generate_torus, load_gset
from gsetbench.oracle import exact_max_cut
from gsetbench.registry import load_registry, locate_instance_file, solution_text

# ---------------------------------------------------------------------------
# Part 1: round-trip on a synthetic instance we can solve exactly
# ---------------------------------------------------------------------------
print("== synthetic 4x4 torus ==")
torus = generate_torus(TorusSpec(4, 4, seed=1))
optimum, config = exact_max_cut(torus)
hexstr = encode_hex(config)
print(f"instance {torus.name}: n={torus.n} m={torus.m} total_weight={torus.total_weight()}")
print(f"exact optimum cut {optimum}, encoded as {hexstr!r}")

decoded = decode_hex(hexstr, torus.n)
report = evaluate_solution(torus, decoded, best_known=optimum)
print(report.to_kv())
assert report.cut == optimum

# a wrong character is rejected with its exact position
broken = "x" + hexstr[1:]
try:
    decode_hex(broken, torus.n)
except HexDecodeError as err:
    print(f"broken string rejected: {err} (char={err.char!r} position={err.position})")

# ---------------------------------------------------------------------------
# Part 2: the bundled record bitstrings for G72 / G77 / G81
# ---------------------------------------------------------------------------
print("\n== bundled record bitstrings ==")
registry = load_registry()
for name, entry in registry.items():
    header, payload = read_solution(solution_text(name))
    expected_digits = (entry.n + 3) // 4
    print(f"{name}: header={header} payload {len(payload)}/{expected_digits} hex digits")

    if not os.environ.get("GSET_DIR"):
        continue
    try:
        path = locate_instance_file(name)
    except FileNotFoundError as err:
        print(f"  {err}")
        continue
    instance = load_gset(path)
    try:
        spins = decode_hex(payload, instance.n)
    except HexDecodeError as err:
        print(f"  decode failed: {err}")
        if err.char == "l":
            print("  retrying with the documented l -> 1 repair")
            spins = decode_hex(payload.replace("l", "1"), instance.n)
        else:
            continue
    report = evaluate_solution(instance, spins, best_known=entry.best_cut)
    marker = "OK" if report.cut == entry.best_cut else "MISMATCH"
    print(f"  {report.to_kv()}  [{marker}, expected {entry.best_cut}]")

if not os.environ.get("GSET_DIR"):
    print("\n(set GSET_DIR to validate against the real instances; "
          "see scripts/fetch_gset.py)")
