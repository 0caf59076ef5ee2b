"""The public, service-grade surface of the JOCL reproduction.

This package is what applications should import.  It wraps the
framework internals (:mod:`repro.core`) behind a long-lived
:class:`JOCLEngine` with

* fluent builder construction (:meth:`JOCLEngine.builder`),
* incremental OKB ingest (:meth:`JOCLEngine.ingest`),
* batch inference returning typed, schema-versioned, JSON-serializable
  results (:meth:`JOCLEngine.run_joint` and friends), executed on a
  pluggable :mod:`repro.runtime` (:meth:`EngineBuilder.with_runtime`)
  and profiled per run (:class:`ExecutionProfile`),
* serving-time queries — single-mention :meth:`JOCLEngine.resolve` and
  request-batched :meth:`JOCLEngine.resolve_many`,
* weight learning and JSON-safe weight export
  (:meth:`JOCLEngine.fit` / :meth:`JOCLEngine.export_weights`),

plus the dedicated exception hierarchy of :mod:`repro.api.errors`.
"""

from repro.api import errors
from repro.api.engine import EngineBuilder, JOCLEngine
from repro.api.errors import (
    CheckpointError,
    EngineBuildError,
    EngineStateError,
    IngestError,
    InvalidRequestError,
    JOCLAPIError,
    SchemaError,
    SchemaVersionError,
    TrainingError,
    UnknownMentionError,
)
from repro.api.results import (
    SCHEMA_VERSION,
    CanonicalizationResult,
    EngineReport,
    EngineStats,
    ExecutionProfile,
    LinkingResult,
    ResolveResult,
)

__all__ = [
    "SCHEMA_VERSION",
    "CanonicalizationResult",
    "CheckpointError",
    "EngineBuildError",
    "EngineBuilder",
    "EngineReport",
    "EngineStateError",
    "EngineStats",
    "ExecutionProfile",
    "IngestError",
    "InvalidRequestError",
    "JOCLAPIError",
    "JOCLEngine",
    "LinkingResult",
    "ResolveResult",
    "SchemaError",
    "SchemaVersionError",
    "TrainingError",
    "UnknownMentionError",
    "errors",
]
