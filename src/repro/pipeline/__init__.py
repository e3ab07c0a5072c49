"""The staged measurement pipeline.

The study is embarrassingly parallel: every project pushes through the
same extract -> parse -> diff -> measure -> classify chain, and no
project depends on any other.  This package turns that chain into an
explicit, composable subsystem:

- :mod:`repro.pipeline.cache` — in-memory content-hash memoization of
  parsing and diffing (sha256 of the SQL blob -> parsed schema,
  schema-pair -> transition diff);
- :mod:`repro.pipeline.stages` — the :class:`Stage` protocol and the
  five concrete stages, plus the :class:`ProjectFailure` record a
  crashing project demotes to instead of aborting the corpus;
- :mod:`repro.pipeline.stats` — per-stage wall time and cache hit/miss
  counters (:class:`PipelineStats`);
- :mod:`repro.pipeline.backends` — the worker processes a run with
  ``jobs > 1`` is scheduled on;
- :mod:`repro.pipeline.pipeline` — :class:`MeasurementPipeline`, which
  executes projects concurrently (``jobs=N``) with deterministic,
  input-ordered result assembly and per-project fault isolation.

``mining.funnel.run_funnel`` delegates its per-project chain here; the
CLI exposes the knobs as ``--jobs`` and ``--stats``.
"""

from repro.pipeline.cache import CacheCounters, SchemaCache
from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig
from repro.pipeline.stages import (
    Outcome,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
    Stage,
)
from repro.pipeline.stats import PipelineStats

__all__ = [
    "CacheCounters",
    "MeasurementPipeline",
    "Outcome",
    "PipelineConfig",
    "PipelineStats",
    "ProjectContext",
    "ProjectFailure",
    "ProjectTask",
    "SchemaCache",
    "Stage",
]
