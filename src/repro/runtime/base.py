"""The :class:`InferenceRuntime` contract: plan → execute → merge.

A runtime turns one :class:`InferenceTask` (graph + schedule + LBP
settings + optional evidence) into one merged
:class:`~repro.factorgraph.lbp.LBPResult` plus an
:class:`~repro.api.results.ExecutionProfile` describing how the work
was executed (how many components, iterations per component, wall
time, reused vs recomputed units).  The three phases are separately
overridable:

``plan``
    Decompose the task into independent :class:`ComponentPlan` units
    (the whole graph for :class:`~repro.runtime.serial.SerialRuntime`,
    connected components for the partitioned runtimes).
``execute``
    Run LBP for every unit in the calling thread, returning results in
    plan order.
``merge``
    Deterministically recombine the per-unit results
    (:func:`repro.factorgraph.lbp.merge_results`) and build the profile.

Runtimes hold no per-task state, so one instance can be shared across
engines and calls.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.lbp import (
    LBPMessages,
    LBPResult,
    LBPSettings,
    LoopyBP,
    Schedule,
    merge_results,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api is upstream)
    from repro.api.results import ExecutionProfile


@dataclass(frozen=True)
class InferenceTask:
    """Everything one inference execution needs, independent of *how*.

    Produced by the planning side (e.g. :meth:`repro.core.model.JOCL`
    building a graph) and consumed by :meth:`InferenceRuntime.run`.
    """

    graph: FactorGraph
    schedule: Schedule | None = None
    settings: LBPSettings = field(default_factory=LBPSettings)
    #: Variable name -> clamped state (the ``Y^L`` evidence pass).
    evidence: Mapping[str, Hashable] | None = None


@dataclass(frozen=True)
class ComponentPlan:
    """One independent unit of work inside an :class:`InferencePlan`.

    The tuple order inside :class:`InferencePlan.components` *is* the
    merge order; executors must return results in that same order.
    """

    #: The stand-alone subgraph (the whole graph for serial plans).
    graph: FactorGraph
    #: A previous run's result to splice instead of running LBP — set by
    #: :meth:`InferenceRuntime.warm_start` for provably clean units.
    reused: LBPResult | None = None
    #: Converged message state to seed LBP from (dirty units whose
    #: variables partially survive from a previous run).
    warm_messages: LBPMessages | None = None

    @property
    def n_variables(self) -> int:
        return len(self.graph.variables)


@dataclass(frozen=True)
class InferencePlan:
    """The decomposition of one task into independent units."""

    task: InferenceTask
    components: tuple[ComponentPlan, ...]


@dataclass(frozen=True)
class RuntimeResult:
    """What a runtime hands back: the merged result plus its profile."""

    result: LBPResult
    profile: ExecutionProfile


def run_component(
    graph: FactorGraph,
    schedule: Schedule | None,
    settings: LBPSettings,
    evidence: Mapping[str, Hashable] | None,
    warm_start: LBPMessages | None = None,
    keep_messages: bool = False,
) -> LBPResult:
    """Run LBP over one plan unit (the body of :meth:`InferenceRuntime.execute`).

    Evidence is filtered down to the unit's own variables, and the
    result's graph back-reference is dropped: :func:`merge_results`
    sets the whole-graph reference on the merged result.  ``warm_start``
    and ``keep_messages`` pass straight through to :meth:`LoopyBP.run`.
    """
    local_evidence = None
    if evidence:
        local_evidence = {
            name: state for name, state in evidence.items() if name in graph.variables
        }
    runner = LoopyBP.from_settings(graph, schedule=schedule, settings=settings)
    result = runner.run(
        local_evidence, warm_start=warm_start, keep_messages=keep_messages
    )
    result._graph = None
    return result


class InferenceRuntime(ABC):
    """Abstract execution runtime; see the module docstring."""

    #: Stable identifier recorded in :class:`ExecutionProfile.runtime`.
    name = "abstract"

    #: Whether :meth:`execute` should retain converged message state on
    #: its results.  Off by default (messages are pure warm-start fuel);
    #: ``IncrementalRuntime(warm_start=True)`` turns it on.
    keep_messages = False

    @abstractmethod
    def plan(self, task: InferenceTask) -> InferencePlan:
        """Decompose the task into independent units."""

    def warm_start(self, plan: InferencePlan) -> InferencePlan:
        """Hook: rewrite the plan with state reusable from prior runs.

        Called between :meth:`plan` and :meth:`execute`.  A runtime that
        caches converged state may mark provably clean units as
        ``reused`` (spliced instead of re-run) and attach
        ``warm_messages`` to dirty ones.  The default is a stateless
        no-op — the plan executes cold.
        """
        return plan

    def execute(self, plan: InferencePlan) -> list[LBPResult]:
        """Run every unit; results must come back in plan order.

        Units carrying a ``reused`` result are spliced without running
        LBP; the rest run sequentially in the calling thread.
        """
        task = plan.task
        return [
            unit.reused
            if unit.reused is not None
            else run_component(
                unit.graph,
                task.schedule,
                task.settings,
                task.evidence,
                warm_start=unit.warm_messages,
                keep_messages=self.keep_messages,
            )
            for unit in plan.components
        ]

    def merge(
        self, plan: InferencePlan, parts: list[LBPResult], wall_time_s: float
    ) -> RuntimeResult:
        """Deterministically recombine per-unit results + build profile."""
        from repro.api.results import ExecutionProfile

        merged = merge_results(parts, plan.task.graph)
        reused = sum(1 for unit in plan.components if unit.reused is not None)
        profile = ExecutionProfile(
            runtime=self.name,
            n_components=len(plan.components),
            component_sizes=tuple(unit.n_variables for unit in plan.components),
            component_iterations=tuple(part.iterations for part in parts),
            iterations=merged.iterations,
            converged=merged.converged,
            wall_time_s=wall_time_s,
            reused_components=reused,
            recomputed_components=len(plan.components) - reused,
        )
        return RuntimeResult(result=merged, profile=profile)

    def after_run(
        self, task: InferenceTask, plan: InferencePlan, parts: list[LBPResult]
    ) -> None:
        """Hook: observe a completed run (state-carrying runtimes cache
        the per-unit results here).  The default is a no-op."""

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of the runtime's configuration and state.

        The payload's ``"type"`` discriminator is the runtime's
        :attr:`name`; :func:`repro.runtime.runtime_from_state` uses it to
        dispatch reconstruction.  Stateless runtimes serialize nothing
        beyond their knobs; :class:`~repro.runtime.IncrementalRuntime`
        additionally carries its cached run state so a restored engine
        resumes incremental serving warm.
        """
        return {"type": self.name}

    @classmethod
    def from_state(cls, payload: dict) -> InferenceRuntime:
        """Reconstruct a runtime from :meth:`to_state` output."""
        del payload
        return cls()

    def run(self, task: InferenceTask) -> RuntimeResult:
        """The template method: plan, warm-start, execute, merge — timed."""
        start = time.perf_counter()
        plan = self.warm_start(self.plan(task))
        parts = self.execute(plan)
        wall_time_s = time.perf_counter() - start
        outcome = self.merge(plan, parts, wall_time_s)
        self.after_run(task, plan, parts)
        return outcome
