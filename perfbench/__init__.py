"""Outside-in benchmark of the JOCL reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`) and
prints one JSON result line; ``BENCHMARK.json`` at the repository root
names the workloads and metrics.  Nothing here is imported by the
library: the traced run instruments the library from the outside
(:mod:`perfbench.tracing`).
"""
