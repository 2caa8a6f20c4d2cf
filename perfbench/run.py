"""Launcher for the raceopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It pins BLAS and OpenMP to one thread
before numpy loads, so the parent and two pool workers do not
oversubscribe a small machine, then imports raceopt from this checkout's
``src/`` and nowhere else.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "raceopt" / "__init__.py").is_file():
        print(f"perfbench: no raceopt sources in {src}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(src)]
    import raceopt
    from perfbench import bench
    if Path(raceopt.__file__).resolve().parent != src / "raceopt":
        print(f"perfbench: raceopt imported from {raceopt.__file__}, not {src}", file=sys.stderr)
        return 2
    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
