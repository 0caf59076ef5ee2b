"""The package's one fan-out helper over a ``concurrent.futures`` pool.

:class:`repro.cluster.ShardedEngine` fans *whole shards* out through
:func:`scatter` (per-shard ingest, per-shard joint inference, per-shard
resolve).  The discipline lives here once: results in submission order
whatever the completion order was, no pool overhead for degenerate
workloads.

Thread pools only: the payloads (engines) are shared in-process state
that would be pointless to pickle.

Lifecycle: every pool is scoped to one :func:`scatter` call.  The
``with`` block shuts the executor down on every exit path; on the first
task failure the not-yet-started tasks are cancelled first, so the
shutdown joins only threads already running instead of draining the
whole queue behind a dead request.

The module also carries the :data:`_SCATTER_OBSERVERS` hook: the
concurrency sanitizer (:mod:`repro.diagnostics`) registers a callback
that is invoked *before* a real pool fan-out blocks, letting it flag
locks held across the scatter (``SAN03``).  Inline degenerate runs do
not notify — nothing blocks on a pool there.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

T = TypeVar("T")

#: Callbacks ``(n_tasks) -> None`` invoked right before :func:`scatter`
#: blocks on a worker pool.  Test-time diagnostics only — the list is
#: empty in production and the pooled path pays one truthiness check.
_SCATTER_OBSERVERS: list[Callable[[int], None]] = []


def _notify_scatter(n_tasks: int) -> None:
    for observer in list(_SCATTER_OBSERVERS):
        observer(n_tasks)


def scatter(
    tasks: Sequence[Callable[[], T]], max_workers: int | None = None
) -> list[T]:
    """Run zero-argument callables concurrently; results in task order.

    The degenerate cases never start a pool: an empty task list returns
    ``[]``, a single task (or ``max_workers=1``) runs inline in the
    calling thread.  The first task exception (in submission order)
    propagates to the caller; tasks that have not started yet are
    cancelled, and the pool is always shut down before this returns or
    raises.

    Example::

        from repro.runtime.pool import scatter

        squares = scatter([lambda i=i: i * i for i in range(4)])
        assert squares == [0, 1, 4, 9]
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    tasks = list(tasks)
    if not tasks:
        return []
    pool_size = len(tasks) if max_workers is None else min(max_workers, len(tasks))
    if pool_size <= 1 or len(tasks) == 1:
        return [task() for task in tasks]
    if _SCATTER_OBSERVERS:
        _notify_scatter(len(tasks))
    with ThreadPoolExecutor(max_workers=pool_size) as executor:
        # Explicit futures instead of executor.map: same submission-order
        # results and first-failure semantics, but a failure lets us
        # cancel the queued remainder instead of running it to
        # completion under the context manager's join.
        futures = [executor.submit(task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
