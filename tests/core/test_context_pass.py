"""Differential tests: the batched context-discovery pass.

:func:`discover_contexts` answers every (site, line) pair of a plan in
one columnar pass: labels, LBR histories, predictor pools and the
combination search all carry a leading pair axis.  Each answer must
equal the reference's pair-by-pair search exactly, for every swept
context knob, when the pass is split into chunks, and when sites are
executed often enough to be subsampled.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import kernel
from repro.core.config import DEFAULT_CONFIG
from repro.core.context import discover_context, discover_contexts
from repro.core.injection import frequent_miss_lines, select_site
from repro.io import profile_from_dict, profile_to_dict
from repro.profiling.profiler import profile_execution
from repro.workloads.apps import build_app

APPS = ("wordpress", "drupal", "finagle-http")

VARIANTS = {
    "default": DEFAULT_CONFIG,
    "predecessors-1": replace(DEFAULT_CONFIG, max_predecessors=1),
    "predecessors-6": replace(DEFAULT_CONFIG, max_predecessors=6),
    "pool-5": replace(DEFAULT_CONFIG, predictor_pool_size=5),
    "occurrences-64": replace(DEFAULT_CONFIG, context_discovery_occurrences=64),
    "lbr-depth-8": replace(DEFAULT_CONFIG, lbr_depth=8),
    "support-40": replace(DEFAULT_CONFIG, min_context_support=40),
    "recall-0.5": replace(DEFAULT_CONFIG, min_context_recall=0.5),
    "window-max-400": DEFAULT_CONFIG.with_window(27, 400),
}


def _fresh(profile):
    """A copy of *profile* with no memo (nor any other cache)."""
    return profile_from_dict(profile_to_dict(profile))


@pytest.fixture(scope="module", params=APPS)
def real_profile(request):
    app = build_app(request.param, scale=0.25)
    return profile_execution(
        app.program, app.trace(12_000), data_traffic=app.data_traffic()
    )


def _pairs(profile, config):
    """Every (chosen site, line) pair of the profile's frequent lines,
    whatever the site's fan-out."""
    pairs = []
    for line, _ in frequent_miss_lines(profile, config):
        chosen = select_site(profile, line, config).chosen
        if chosen is not None:
            pairs.append((chosen.block_id, line))
    return pairs


def _batched(profile, pairs, config):
    copy = _fresh(profile)
    with kernel.force_numpy_kernel():
        discover_contexts(copy, pairs, config)
        memo = copy.analysis_memo()
        hits = memo.context_hits
        answers = [discover_context(copy, site, line, config) for site, line in pairs]
        # Every answer came from the pass.
        assert memo.context_hits - hits == len(pairs)
    return answers


def _reference(profile, pairs, config):
    copy = _fresh(profile)
    with kernel.reference_path():
        return [discover_context(copy, site, line, config) for site, line in pairs]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_batched_pass_matches_reference(real_profile, name):
    config = VARIANTS[name]
    pairs = _pairs(real_profile, config)
    assert pairs
    assert _batched(real_profile, pairs, config) == _reference(
        real_profile, pairs, config
    )


def test_chunked_pass_matches_reference(real_profile, monkeypatch):
    # A tiny element budget splits labels, histories and the
    # combination search into many chunks.
    pairs = _pairs(real_profile, DEFAULT_CONFIG)
    expected = _reference(real_profile, pairs, DEFAULT_CONFIG)
    assert any(context is not None for context in expected)
    monkeypatch.setattr(kernel, "BATCH_ELEMENTS", 500)
    assert _batched(real_profile, pairs, DEFAULT_CONFIG) == expected


def test_pairs_in_any_order_and_repeated(real_profile):
    pairs = _pairs(real_profile, DEFAULT_CONFIG)
    shuffled = pairs[::-1] + pairs[:5]
    assert _batched(real_profile, shuffled, DEFAULT_CONFIG) == _reference(
        real_profile, shuffled, DEFAULT_CONFIG
    )


def test_unknown_site_and_line(real_profile):
    pairs = _pairs(real_profile, DEFAULT_CONFIG)[:3]
    site, line = pairs[0]
    odd = [(10**7, line), (site, 10**9)] + pairs
    answers = _batched(real_profile, odd, DEFAULT_CONFIG)
    assert answers[:2] == [None, None]
    assert answers == _reference(real_profile, odd, DEFAULT_CONFIG)
