"""Shared fixtures: one scaled-down synthetic corpus per session.

Building and mining a corpus is the expensive part of the pipeline, so
integration-level tests share a single session-scoped build at a reduced
scale (the full paper-scale corpus is exercised by the benchmarks).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck
from hypothesis import settings as hypothesis_settings

# One deterministic hypothesis profile for the whole suite: property
# tests replay identically across runs (failures stay reproducible).
# Performance heuristics are disabled along with the deadline: the
# derandomized example sequence shifts whenever surrounding code
# changes, and strategies that sit near the entropy ceiling (the
# random-schema pairs in test_smo) would flip the data_too_large check
# spuriously.
hypothesis_settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
hypothesis_settings.load_profile("repro")

from repro.core import analyze_corpus
from repro.synthesis import CorpusSpec, build_corpus

# Long-running hypothesis tests are marked slow here instead of with an
# inline decorator: the derandomized profile above makes hypothesis
# derive each test's example sequence from a digest of its source, so
# adding a decorator line would change the generated examples.
_SLOW_HYPOTHESIS_TESTS = (
    "test_smo.py::TestSmoProperties::test_inferred_script_is_faithful",
    "test_smo.py::TestSmoProperties::test_inferred_cost_equals_diff_activity",
    "test_smo.py::TestRender::test_render_replay_property",
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.nodeid.endswith(_SLOW_HYPOTHESIS_TESTS):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def corpus():
    """A small but complete corpus: every population present."""
    spec = CorpusSpec(
        seed=2019,
        scale=0.2,
        join_rejected=15,
        not_in_libio=25,
        path_omitted=9,
    )
    return build_corpus(spec)


@pytest.fixture(scope="session")
def funnel_report(corpus):
    return corpus.run_funnel()


@pytest.fixture(scope="session")
def analysis(funnel_report):
    # Rigid (history-less) projects ride along so corpus-wide shares
    # (RQ1's 40%/70%) use the full cloned population as their base.
    return analyze_corpus(funnel_report.studied + funnel_report.rigid)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture()
def fresh_worker_pool(monkeypatch):
    """A timeout-worker pool of the test's own, so a worker an earlier
    test left in a hang cannot rejoin the pool mid-test."""
    from repro.resilience import policy

    monkeypatch.setattr(policy, "_POOL", policy._WorkerPool())
