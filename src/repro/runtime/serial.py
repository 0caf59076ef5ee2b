"""The default runtime: one LBP pass over the whole graph.

Exactly the historical ``LoopyBP(graph).run()`` behavior, expressed
through the plan/execute/merge contract so the profile (components,
iterations, wall time) is reported the same way as for the partitioned
runtimes.
"""

from __future__ import annotations

from repro.runtime.base import (
    ComponentPlan,
    InferencePlan,
    InferenceRuntime,
    InferenceTask,
)


class SerialRuntime(InferenceRuntime):
    """Whole-graph LBP in the calling thread (the default)."""

    name = "serial"

    def plan(self, task: InferenceTask) -> InferencePlan:
        """The whole graph is one unit; no segmentation."""
        return InferencePlan(
            task=task, components=(ComponentPlan(graph=task.graph),)
        )
