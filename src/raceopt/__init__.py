"""Racing-based selection for evolutionary multi-objective optimization
under noise: NSGA-II with Hoeffding races on selection probability,
static-resampling and implicit-averaging baselines, noisy ZDT benchmarks,
and a reproducible experiment harness.

The package root exports nothing; import from the submodules (``core``,
``problems``, ``moea``, ``racing``, ``metrics``, ``harness``, ``cli``)."""

__version__ = "0.1.0"
