"""Run one workload: ``python3 benchmarks/e2e/run.py --workload W [--seed N]
[--seconds S] [--trace 0|1] [--out F]``.

The same as ``python -m benchmarks.e2e run`` for a caller that names a
script rather than a module; run it from the root of a checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.cli import main

    raise SystemExit(main(["run", *sys.argv[1:]]))
