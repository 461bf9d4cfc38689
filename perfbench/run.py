"""Run one workload of the ruber benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, eval, finetune-ragged (see BENCHMARK.json).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the checkout
holds no ruber sources to measure.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "ruber" / "__init__.py").is_file():
        print(f"perfbench: no ruber sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import main

    sys.exit(main())
