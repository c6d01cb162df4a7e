#!/usr/bin/env python3
"""
Download Gset instance files for local validation.

The instances are published as plain text at the Stanford site below.
They are too large to bundle, and the library deliberately has no
download path of its own, so fetch them once with this script and
point GSET_DIR at the target directory:

    python scripts/fetch_gset.py --dest ~/gset
    export GSET_DIR=~/gset
    gsetbench validate G77 my_solution.txt

Needs ordinary internet access.
"""

import argparse
import sys
import urllib.request
from pathlib import Path

BASE_URL = "https://web.stanford.edu/~yyye/yyye/Gset"
DEFAULT_NAMES = ("G72", "G77", "G81")


def fetch(name: str, dest: Path) -> Path:
    url = f"{BASE_URL}/{name}"
    target = dest / name
    print(f"fetching {url} -> {target}")
    with urllib.request.urlopen(url) as response:
        target.write_bytes(response.read())
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", default="gset", help="target directory")
    parser.add_argument("names", nargs="*", default=list(DEFAULT_NAMES),
                        help="instance names (default: G72 G77 G81)")
    args = parser.parse_args(argv)
    dest = Path(args.dest).expanduser()
    dest.mkdir(parents=True, exist_ok=True)
    for name in args.names:
        path = fetch(name, dest)
        head = path.read_text().split(None, 2)[:2]
        print(f"  header: n={head[0]} m={head[1]}")
    print(f"done; export GSET_DIR={dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
