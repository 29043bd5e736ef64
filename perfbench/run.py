"""quenchfront benchmark launcher.

    python3 perfbench/run.py --workload fronts --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy.  Workloads: fronts, fold,
spectra, pde (see BENCHMARK.json).  BLAS and OpenMP are pinned to one thread
before numpy loads, so timings are single-threaded.  The last line of stdout
is the JSON result; the line before it holds the run's details (environment,
per-pass times, errors, counters).  Exits 2 without a result when the
package sources are missing.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "quenchfront", "__init__.py")):
        print(f"error: no quenchfront sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import quenchfront

    if not os.path.abspath(quenchfront.__file__).startswith(SRC + os.sep):
        print(f"error: quenchfront imported from {quenchfront.__file__}", file=sys.stderr)
        sys.exit(2)
    import bench

    sys.exit(bench.main(sys.argv[1:], ROOT, T_START))
