"""Pluggable execution runtimes for JOCL inference.

The paper closes Section 3.4 noting inference "can be extended to a
distributed version with a graph segmentation algorithm"; this package
is that seam.  An :class:`InferenceRuntime` turns an
:class:`InferenceTask` (factor graph + schedule + LBP settings) into a
merged :class:`~repro.factorgraph.lbp.LBPResult` plus an
:class:`~repro.api.results.ExecutionProfile`, via three overridable
phases — **plan** (decompose), **execute** (run LBP per unit), and
**merge** (deterministic recombination).

Shipped runtimes:

* :class:`SerialRuntime` — whole-graph LBP, the historical behavior
  and the default everywhere;
* :class:`PartitionedRuntime` — per-connected-component LBP (the
  segmentation primitive of :mod:`repro.factorgraph.partition`),
  decision-for-decision equivalent to whole-graph LBP and usually
  faster: each component stops at its own convergence;
* :class:`IncrementalRuntime` — the partitioned plan with cross-call
  state: components untouched since the previous run are spliced from
  the cached converged result (with a structural identity check as the
  correctness backstop), dirty components re-run LBP — cold by default
  (keeping the merged output bit-identical to a cold batch run), or
  seeded from the previous messages via ``warm_start=True``.  Stateful
  — one engine per instance; the natural pairing for
  :meth:`repro.api.JOCLEngine.ingest`.

All three run LBP in the calling thread: pure-Python LBP holds the GIL,
so fanning components out over a thread pool measured no faster than
the partitioned plan run in sequence.  The package's one worker pool,
:func:`scatter`, fans whole shards out for
:class:`repro.cluster.ShardedEngine`.

Select one per engine via
``JOCLEngine.builder().with_runtime(IncrementalRuntime())``,
or pass it straight to :meth:`repro.core.model.JOCL.infer`.
"""

from repro.runtime.base import (
    ComponentPlan,
    InferencePlan,
    InferenceRuntime,
    InferenceTask,
    RuntimeResult,
    run_component,
)
from repro.runtime.incremental import IncrementalRuntime
from repro.runtime.partitioned import PartitionedRuntime
from repro.runtime.pool import scatter
from repro.runtime.serial import SerialRuntime

#: ``to_state()["type"]`` discriminator -> runtime class, for
#: :func:`runtime_from_state`.
_RUNTIME_TYPES: dict[str, type[InferenceRuntime]] = {
    SerialRuntime.name: SerialRuntime,
    PartitionedRuntime.name: PartitionedRuntime,
    IncrementalRuntime.name: IncrementalRuntime,
}


def runtime_from_state(payload: dict) -> InferenceRuntime:
    """Reconstruct a runtime from an :meth:`InferenceRuntime.to_state`
    payload, dispatching on its ``"type"`` discriminator.

    Raises :class:`ValueError` for unknown types (a third-party runtime
    whose class is not importable here, or a runtime type this version
    no longer ships); :meth:`repro.api.JOCLEngine.load` lets callers
    override the runtime explicitly in that case.
    """
    runtime_type = payload.get("type")
    runtime_cls = _RUNTIME_TYPES.get(runtime_type)
    if runtime_cls is None:
        raise ValueError(
            f"unknown runtime type {runtime_type!r}; expected one of "
            f"{sorted(_RUNTIME_TYPES)}; restore the checkpoint with an "
            f"explicit runtime= override, e.g. "
            f"JOCLEngine.load(store, runtime=PartitionedRuntime())"
        )
    return runtime_cls.from_state(payload)


__all__ = [
    "ComponentPlan",
    "IncrementalRuntime",
    "InferencePlan",
    "InferenceRuntime",
    "InferenceTask",
    "PartitionedRuntime",
    "RuntimeResult",
    "SerialRuntime",
    "run_component",
    "runtime_from_state",
    "scatter",
]
