"""Dirty-component incremental LBP: re-infer only what an ingest touched.

The paper's joint MLN/factor-graph formulation is exactly the setting
where incremental maintenance pays off: adding OIE triples perturbs only
the factor-graph components they touch, and LBP messages never cross
component boundaries.  :class:`IncrementalRuntime` exploits that across
*successive* ``run`` calls on one long-lived engine:

* the plan is the partitioned plan (one unit per connected component);
* :meth:`IncrementalRuntime.warm_start` splices the previous run's
  converged result into every component it can prove **clean** —
  delta-untouched (see :meth:`mark_dirty` and
  :func:`repro.factorgraph.partition.dirty_components`) *and*
  structurally identical to the cached component (same variables,
  domains, factor scopes, feature tables and template weights);
* dirty components re-run LBP, seeded from the previous converged
  messages wherever the variable domains are unchanged.

**Decision-equivalence guarantee.**  A component is only reused when its
subgraph is bit-identical to the one the cached result was computed on;
LBP is deterministic, so re-running it would reproduce the cached result
exactly, and the merged output equals a cold
:class:`~repro.runtime.partitioned.PartitionedRuntime` run.  The
delta-dirty marking is a fast path *around* the structural check, never
a substitute for it — an unannounced change (e.g. new template weights
after ``fit``) is still caught and recomputed.  In the default
configuration dirty components run *cold* (uniform message
initialization), making their results bit-identical to a
:class:`PartitionedRuntime` run too — the merged output equals a cold
batch run byte for byte.

Opt-in message seeding (``warm_start=True``) additionally initializes
dirty components' messages from the previous converged state where
variable domains are unchanged.  Seeding moves where the fixed-point
search starts, not which fixed points exist, so it converges in fewer
iterations — but the stopping rule measures per-sweep change, so a
warm trajectory can halt at a sub-tolerance-different point than a cold
one, and the decoder's confidence ordering may resolve near-ties
differently.  Use it when throughput matters more than bit-stability;
the default keeps the decision-equivalence guarantee unconditional.

Unlike the stateless runtimes, an ``IncrementalRuntime`` instance owns
per-engine mutable state (the previous run's components and results,
plus their converged messages when ``warm_start=True`` — the only
reader of them) — give each engine its own instance and do not share
one across engines or threads.

The reused-vs-recomputed split of every run is reported in
:class:`~repro.api.results.ExecutionProfile` (``reused_components`` /
``recomputed_components``); reused components report the iteration count
of the run that originally computed them.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, replace

import numpy as np

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.lbp import LBPMessages, LBPResult, LBPSettings, Schedule
from repro.factorgraph.partition import dirty_components
from repro.factorgraph.serialize import (
    graph_from_state,
    graph_to_state,
    result_from_state,
    result_to_state,
    schedule_from_state,
    schedule_to_state,
    settings_from_state,
    settings_to_state,
)
from repro.runtime.base import InferencePlan, InferenceTask
from repro.runtime.partitioned import PartitionedRuntime


def phrases_of_variable(name: str) -> tuple[tuple[str, str], ...]:
    """``(kind, phrase)`` pairs a JOCL variable name references.

    Understands the two naming schemes of :mod:`repro.core.builder`:
    ``link:<kind>:<phrase>`` and ``canon:<kind>:<first>||<second>``.
    Unknown shapes yield no pairs (they are never delta-dirty and fall
    back to the structural check).
    """
    prefix, _, rest = name.partition(":")
    kind, separator, payload = rest.partition(":")
    if not separator or prefix not in ("link", "canon"):
        return ()
    if prefix == "link":
        return ((kind, payload),)
    first, separator, second = payload.partition("||")
    if separator:
        return ((kind, first), (kind, second))
    return ((kind, payload),)


def component_unchanged(old: FactorGraph, new: FactorGraph) -> bool:
    """Whether two component subgraphs define the same inference problem.

    True iff variables (names, domains, groups), factors (names,
    template, scope order, feature tables) and template weights all
    coincide.  Feature tables are compared by identity first — the
    engine's build cache hands unchanged components the *same* arrays,
    making the check O(component) in the common case.
    """
    if len(old.variables) != len(new.variables):
        return False
    if len(old.factors) != len(new.factors):
        return False
    for name, variable in new.variables.items():
        other = old.variables.get(name)
        if (
            other is None
            or other.domain != variable.domain
            or other.group != variable.group
        ):
            return False
    for name, template in new.templates.items():
        other = old.templates.get(name)
        if other is None or not np.array_equal(other.weights, template.weights):
            return False
    for name, factor in new.factors.items():
        other = old.factors.get(name)
        if other is None or other.template.name != factor.template.name:
            return False
        if tuple(v.name for v in other.variables) != tuple(
            v.name for v in factor.variables
        ):
            return False
        if other.feature_table is not factor.feature_table and not np.array_equal(
            other.feature_table, factor.feature_table
        ):
            return False
    return True


@dataclass
class _CachedComponent:
    """One component of the previous run: its subgraph and result."""

    graph: FactorGraph
    result: LBPResult


@dataclass
class _RunState:
    """Everything the previous run left behind for reuse."""

    settings: LBPSettings
    schedule: Schedule | None
    evidence: dict | None
    #: Component cache keyed by the frozen variable-name set.
    components: dict[frozenset[str], _CachedComponent]
    #: Variable name -> domain across all cached components (validates
    #: warm-start message reuse).
    domains: dict[str, tuple]
    #: Merged converged messages across all cached components.
    f2v: dict[tuple[str, str], np.ndarray]
    v2f: dict[tuple[str, str], np.ndarray]


class IncrementalRuntime(PartitionedRuntime):
    """Partitioned LBP that re-runs only dirty components across calls.

    Parameters
    ----------
    warm_start:
        Seed dirty components' messages from the previous converged
        state where variable domains are unchanged.  Off by default:
        cold re-runs keep the merged output bit-identical to a cold
        batch run; seeding trades that for fewer iterations (see the
        module docstring).

    See the module docstring for the reuse rules and the
    decision-equivalence guarantee.  Instances are stateful: one engine
    (and thread) per instance.
    """

    name = "incremental"

    def __init__(self, warm_start: bool = False) -> None:
        self._warm = warm_start
        # Converged messages are read only by a warm start.
        self.keep_messages = warm_start
        self._state: _RunState | None = None
        self._pending_dirty: dict[str, set[str]] | None = None

    @property
    def warm_starts(self) -> bool:
        """Whether dirty components are seeded from previous messages."""
        return self._warm

    # ------------------------------------------------------------------
    # Engine handshake
    # ------------------------------------------------------------------
    def mark_dirty(self, dirty: Mapping[str, Collection[str]]) -> None:
        """Record phrases (per slot kind ``"S"``/``"P"``/``"O"``) an
        ingest touched.

        Called by :meth:`repro.api.JOCLEngine.ingest` (through its delta
        bookkeeping); accumulates until the next :meth:`run` consumes
        it.  Components containing a variable of a marked phrase skip
        the reuse check and recompute; everything else must still pass
        the structural check, so an incomplete marking can cost time but
        never correctness.
        """
        if self._pending_dirty is None:
            self._pending_dirty = {}
        for kind, phrases in dirty.items():
            self._pending_dirty.setdefault(kind, set()).update(phrases)

    def reset(self) -> None:
        """Drop all cached state; the next run executes fully cold."""
        self._state = None
        self._pending_dirty = None

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot: knobs, pending dirty marks, run state.

        The run state serializes each cached component's subgraph
        (feature tables and all) and converged result, with its message
        tables when ``warm_start=True`` — exactly what :meth:`warm_start`
        consults — so an engine restored
        from a checkpoint splices clean components on its very first
        post-restore inference instead of recomputing the world.
        Payloads round-trip exactly; the structural reuse check compares
        restored tables value-for-value (``np.array_equal``) and still
        holds.
        """
        payload: dict = {"type": self.name, "warm_start": self._warm}
        if self._pending_dirty:
            payload["pending_dirty"] = {
                kind: sorted(phrases)
                for kind, phrases in sorted(self._pending_dirty.items())
            }
        state = self._state
        if state is not None:
            payload["run_state"] = {
                "settings": settings_to_state(state.settings),
                "schedule": (
                    schedule_to_state(state.schedule)
                    if state.schedule is not None
                    else None
                ),
                "evidence": dict(state.evidence) if state.evidence else None,
                "components": [
                    {
                        "graph": graph_to_state(cached.graph),
                        "result": result_to_state(cached.result),
                    }
                    for cached in state.components.values()
                ],
            }
        return payload

    @classmethod
    def from_state(cls, payload: dict) -> IncrementalRuntime:
        """Inverse of :meth:`to_state`; see :class:`_RunState`."""
        runtime = cls(warm_start=bool(payload.get("warm_start", False)))
        pending = payload.get("pending_dirty")
        if pending:
            runtime._pending_dirty = {
                kind: set(phrases) for kind, phrases in pending.items()
            }
        run_state = payload.get("run_state")
        if run_state is None:
            return runtime
        components: dict[frozenset[str], _CachedComponent] = {}
        domains: dict[str, tuple] = {}
        f2v: dict[tuple[str, str], np.ndarray] = {}
        v2f: dict[tuple[str, str], np.ndarray] = {}
        for entry in run_state["components"]:
            graph = graph_from_state(entry["graph"])
            result = result_from_state(entry["result"])
            if not runtime._warm:
                # 1.x checkpoints carry messages for every incremental
                # runtime; a cold one never reads them.
                result.messages = None
            components[frozenset(graph.variables)] = _CachedComponent(
                graph=graph, result=result
            )
            for variable_name, variable in graph.variables.items():
                domains[variable_name] = variable.domain
            if result.messages is not None:
                f2v.update(result.messages.f2v)
                v2f.update(result.messages.v2f)
        raw_schedule = run_state.get("schedule")
        raw_evidence = run_state.get("evidence")
        runtime._state = _RunState(
            settings=settings_from_state(run_state["settings"]),
            schedule=(
                schedule_from_state(raw_schedule)
                if raw_schedule is not None
                else None
            ),
            evidence=dict(raw_evidence) if raw_evidence else None,
            components=components,
            domains=domains,
            f2v=f2v,
            v2f=v2f,
        )
        return runtime

    # ------------------------------------------------------------------
    # The warm-start hook
    # ------------------------------------------------------------------
    def warm_start(self, plan: InferencePlan) -> InferencePlan:
        """Splice clean components; seed dirty ones (module docstring)."""
        state = self._state
        pending, self._pending_dirty = self._pending_dirty, None
        if state is None or not self._compatible(state, plan.task):
            return plan
        delta_dirty: frozenset[int] = frozenset()
        if pending:
            dirty_variables = [
                variable_name
                for variable_name in plan.task.graph.variables
                if any(
                    phrase in pending.get(kind, ())
                    for kind, phrase in phrases_of_variable(variable_name)
                )
            ]
            delta_dirty = dirty_components(
                [frozenset(unit.graph.variables) for unit in plan.components],
                dirty_variables,
            )
        units = []
        for position, unit in enumerate(plan.components):
            cached = state.components.get(frozenset(unit.graph.variables))
            if (
                cached is not None
                and position not in delta_dirty
                and component_unchanged(cached.graph, unit.graph)
            ):
                units.append(replace(unit, reused=cached.result))
                continue
            warm = self._collect_warm(unit.graph, state) if self._warm else None
            units.append(replace(unit, warm_messages=warm))
        return InferencePlan(task=plan.task, components=tuple(units))

    @staticmethod
    def _compatible(state: _RunState, task: InferenceTask) -> bool:
        """Whether cached results were computed under the same run knobs."""
        evidence = dict(task.evidence) if task.evidence else None
        return (
            state.settings == task.settings
            and state.schedule == task.schedule
            and state.evidence == evidence
        )

    def _collect_warm(
        self, graph: FactorGraph, state: _RunState
    ) -> LBPMessages | None:
        """Previous messages valid for ``graph``: key exists and the
        variable's domain is unchanged (the warm-start precondition)."""

        def valid(variable_name: str) -> bool:
            variable = graph.variables.get(variable_name)
            return (
                variable is not None
                and state.domains.get(variable_name) == variable.domain
            )

        f2v = {
            key: message
            for key, message in state.f2v.items()
            if key[0] in graph.factors and valid(key[1])
        }
        v2f = {
            key: message
            for key, message in state.v2f.items()
            if key[1] in graph.factors and valid(key[0])
        }
        if not f2v and not v2f:
            return None
        return LBPMessages(f2v=f2v, v2f=v2f)

    # ------------------------------------------------------------------
    # State capture
    # ------------------------------------------------------------------
    def after_run(
        self, task: InferenceTask, plan: InferencePlan, parts: list[LBPResult]
    ) -> None:
        """Remember the completed run for the next warm start."""
        components: dict[frozenset[str], _CachedComponent] = {}
        domains: dict[str, tuple] = {}
        f2v: dict[tuple[str, str], np.ndarray] = {}
        v2f: dict[tuple[str, str], np.ndarray] = {}
        for unit, part in zip(plan.components, parts, strict=True):
            components[frozenset(unit.graph.variables)] = _CachedComponent(
                graph=unit.graph, result=part
            )
            for variable_name, variable in unit.graph.variables.items():
                domains[variable_name] = variable.domain
            if part.messages is not None:
                f2v.update(part.messages.f2v)
                v2f.update(part.messages.v2f)
        self._state = _RunState(
            settings=task.settings,
            schedule=task.schedule,
            evidence=dict(task.evidence) if task.evidence else None,
            components=components,
            domains=domains,
            f2v=f2v,
            v2f=v2f,
        )
