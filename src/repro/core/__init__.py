"""Core of the reproduction: schema histories, diffs, metrics, taxa.

This subpackage is the Python counterpart of the paper's toolchain
(Hecate for diffing/measuring, Heraclitus Fire for analysis): it turns a
DDL file's version history into the paper's nomenclature — transitions,
expansion/maintenance, heartbeat, reeds and turf, active commits, SUP —
and classifies each project into one of the taxa of schema evolution.
"""

from repro.core.diff import AttributeChange, TransitionDiff, diff_schemas
from repro.core.history import SchemaHistory, SchemaVersion, history_from_versions
from repro.core.heartbeat import (
    DEFAULT_REED_LIMIT,
    Heartbeat,
    HeartbeatEntry,
    derive_reed_limit,
)
from repro.core.metrics import ProjectMetrics, TransitionMetrics, compute_metrics
from repro.core.taxa import Taxon, TaxonRules, classify, classify_metrics
from repro.core.project import ProjectHistory, RepoStats
from repro.core.analysis import (
    CorpusAnalysis,
    IncompleteCorpusError,
    TaxonProfile,
    analyze_corpus,
)
from repro.core.renames import RenameAwareDiff, detect_table_renames, diff_with_rename_detection
from repro.core.shapes import LineShape, classify_line, line_shape_of, shape_shares
from repro.core.nonactive import NonActiveKind, categorize_nonactive, nonactive_breakdown

__all__ = [
    "AttributeChange",
    "CorpusAnalysis",
    "DEFAULT_REED_LIMIT",
    "Heartbeat",
    "HeartbeatEntry",
    "IncompleteCorpusError",
    "LineShape",
    "NonActiveKind",
    "ProjectHistory",
    "ProjectMetrics",
    "RenameAwareDiff",
    "RepoStats",
    "SchemaHistory",
    "SchemaVersion",
    "TaxonProfile",
    "Taxon",
    "TaxonRules",
    "TransitionDiff",
    "TransitionMetrics",
    "analyze_corpus",
    "categorize_nonactive",
    "classify",
    "classify_line",
    "classify_metrics",
    "compute_metrics",
    "derive_reed_limit",
    "detect_table_renames",
    "diff_schemas",
    "diff_with_rename_detection",
    "history_from_versions",
    "line_shape_of",
    "nonactive_breakdown",
    "shape_shares",
]
