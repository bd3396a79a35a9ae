"""Check or regenerate the golden behaviour digest.

    PYTHONPATH=src python -m tests.golden           # report differences
    PYTHONPATH=src python -m tests.golden --write   # regenerate the file
"""

from __future__ import annotations

import argparse
import sys

from tests.golden import GOLDEN_PATH, MATRIX, digest, load, write


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} from this checkout")
    args = parser.parse_args(argv)

    current = {case.name: digest(case) for case in MATRIX}
    if args.write:
        write(current)
        print(f"wrote {len(current)} cases to {GOLDEN_PATH}")
        return 0
    golden = load()
    differing = sorted(
        name for name in set(golden) | set(current)
        if golden.get(name) != current.get(name)
    )
    for name in differing:
        print(f"differs: {name}")
        print(f"  golden:  {golden.get(name)}")
        print(f"  current: {current.get(name)}")
    print(f"{len(current) - len(differing)}/{len(current)} cases match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
