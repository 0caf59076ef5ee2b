"""Component-partitioned LBP: segment the graph, infer per component.

LBP messages never cross connected-component boundaries, so marginals
computed per component equal whole-graph marginals — the segmentation
claim the paper closes Section 3.4 with.  Decomposing has a second,
single-threaded payoff: each component stops at *its own* convergence
instead of iterating until the slowest component converges, so the
total number of factor updates is never larger than the whole-graph
run and usually substantially smaller on multi-component OKBs.

The per-component plan is also the substrate of
:class:`~repro.runtime.incremental.IncrementalRuntime`, which carries
converged component results *across* runs, re-running only the
components an ingest dirtied.
"""

from __future__ import annotations

from repro.factorgraph.partition import partition_graph
from repro.runtime.base import (
    ComponentPlan,
    InferencePlan,
    InferenceRuntime,
    InferenceTask,
)


class PartitionedRuntime(InferenceRuntime):
    """Per-component LBP, executed sequentially in the calling thread.

    Decision-for-decision equivalent to whole-graph LBP: identical
    fixed points, identical decoding.  Two sub-tolerance caveats of
    per-component early stopping: marginals can differ below the
    convergence tolerance, and the merged iteration count (slowest
    component's own first crossing) matches the whole-graph count only
    while residuals stay monotone after crossing — both are dwarfed by
    the decoder's decision margins on real workloads and are pinned by
    the seeded equivalence tests.
    """

    name = "partitioned"

    def plan(self, task: InferenceTask) -> InferencePlan:
        """One unit per connected component, largest first."""
        subgraphs = partition_graph(task.graph)
        if not subgraphs:
            # An empty graph has no components; keep one (empty) unit so
            # the run degenerates exactly like SerialRuntime's.
            return InferencePlan(
                task=task, components=(ComponentPlan(graph=task.graph),)
            )
        return InferencePlan(
            task=task,
            components=tuple(
                ComponentPlan(graph=subgraph) for subgraph in subgraphs
            ),
        )
