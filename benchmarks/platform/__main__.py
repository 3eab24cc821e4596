"""Entry point: ``python3 -m benchmarks.platform [run|selfcheck|compare|report] ...``.

With no sub-command this is the one-run form ``BENCHMARK.json`` names:
``--workload W --seed S --seconds T --trace 0|1`` prints the result
object as the last line of standard output.
"""

import os
import sys
from pathlib import Path

# Pinned before NumPy is imported anywhere: the box has two cores and a
# BLAS thread pool would make every timing depend on what the other core
# is doing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The program under test is imported from the checkout's own source tree.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.platform.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
