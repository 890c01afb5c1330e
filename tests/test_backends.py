"""The backend clients: memo, retry, span and fault laws, and the
differential proof.

Two families of guarantees pin :mod:`repro.backends`:

1. **Client laws** (property tests over seeds, fault rates and query
   lists), replayed on the real :class:`~repro.backends.CdxBackend`
   over a :class:`~repro.faults.inject.FaultyCdxApi`: the memo sits
   above the retry loop, spans open only on memo misses, a tracer never
   changes a response, and every retry consults the fault channels
   again.
2. **The differential refactor proof**: every scenario digest in
   ``tests/golden/stack_differential.json`` — committed from the
   pre-refactor wrappers — is recomputed through the current clients
   and must match byte-for-byte (re-recorded, only for a deliberate
   behaviour change, by ``REPRO_UPDATE_GOLDENS=1 pytest
   tests/test_backends.py``).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.study import Study
from repro.archive.cdx import CdxQuery
from repro.backends import CdxBackend
from repro.dataset.worldgen import generate_world
from repro.exec import StudyExecutor
from repro.faults.inject import FaultyCdxApi
from repro.faults.plan import FaultPlan
from repro.obs.trace import Tracer
from repro.reporting.golden import GOLDEN_CONFIG
from repro.reporting.report import render_markdown_report
from repro.retry import (
    DEFAULT_MASKING_POLICY,
    RetryCounters,
    RetryPolicy,
    call_with_retry,
)

#: Fast, ample retry budget: masks any transient depth the tests draw
#: (two stacked CDX channels of at most three repeats each).
MASKING = RetryPolicy(
    max_retries=8, base_delay_ms=1.0, max_delay_ms=4.0, budget_ms=1e9
)


class _CountingCdx:
    """A CDX API answering each request with one row naming it, and
    counting the calls that reach it — the ground truth the laws count
    against."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    @property
    def query_count(self) -> int:
        return sum(self.calls.values())

    def query(self, request: CdxQuery) -> tuple[str, ...]:
        self.calls[f"query:{request!r}"] += 1
        return (f"row:{request.url}",)

    def archived_urls(self, request: CdxQuery) -> tuple[str, ...]:
        self.calls[f"urls:{request!r}"] += 1
        return (request.url,)


def _queries(ids: list[int]) -> list[CdxQuery]:
    return [CdxQuery(url=f"http://h{i % 5}.example/p{i}") for i in ids]


def _faulty(seed: int, rate: float) -> tuple[FaultyCdxApi, _CountingCdx]:
    inner = _CountingCdx()
    plan = FaultPlan.transient_archive(rate=rate, seed=seed, max_repeats=3)
    return FaultyCdxApi(inner, plan), inner


def _depth(api: FaultyCdxApi, key: str) -> int:
    """Faulted attempts at ``key``: the rate-limit channel fires first,
    then the error channel counts its own attempts from zero."""
    return api.rate_limit_channel.depth(key) + api.error_channel.depth(key)


_LAW_INPUTS = dict(
    seed=st.integers(0, 10_000),
    rate=st.floats(0.05, 0.95),
    ids=st.lists(st.integers(0, 9), min_size=1, max_size=12),
)


# -- the memo sits above the retry loop ------------------------------------------


class TestCacheAboveRetry:
    @given(repeats=st.integers(1, 4), **_LAW_INPUTS)
    def test_masked_transient_is_one_backend_recovery(
        self, repeats, seed, rate, ids
    ):
        """A retry-masked transient costs its depth+1 attempts *once*;
        every repeat of the request is a memo hit that never re-enters
        the retry loop."""
        api, inner = _faulty(seed, rate)
        client = CdxBackend(api, retry_policy=MASKING)
        queries = _queries(ids)
        for _ in range(repeats):
            for query in queries:
                assert client.query(query) == (f"row:{query.url}",)

        distinct = set(queries)
        keys = [f"query:{query!r}" for query in distinct]
        # one successful backend call per distinct query, however often
        # it was repeated, after exactly its faulted attempts
        assert inner.calls == Counter(keys)
        assert api.injected == sum(_depth(api, key) for key in keys)
        assert client.retry_counters.retries == api.injected
        assert client.misses == len(distinct)
        assert client.hits == repeats * len(queries) - len(distinct)


# -- fault decisions do not depend on the memo -----------------------------------


class TestFaultDecisionsVsCachePosition:
    @given(**_LAW_INPUTS)
    def test_injected_faults_and_responses_identical(self, seed, rate, ids):
        """Identically seeded injectors make the same decisions with or
        without the memo above the retry loop: depth is a pure function
        of (seed, channel, key), first contact drives every injection,
        and memo hits never re-consult a channel (a cleared transient
        stays cleared either way). Without the memo every repeat
        reaches the backend again."""
        cached_api, cached_inner = _faulty(seed, rate)
        bare_api, bare_inner = _faulty(seed, rate)
        client = CdxBackend(cached_api, retry_policy=MASKING)
        counters = RetryCounters()
        for query in _queries(ids):
            bare = call_with_retry(
                lambda: bare_api.query(query),
                MASKING,
                key=f"cdx.query:{query!r}",
                counters=counters,
            )
            assert client.query(query) == bare

        assert cached_api.injected == bare_api.injected
        assert counters == client.retry_counters
        assert cached_inner.query_count == len(set(ids))
        assert bare_inner.query_count == len(ids)


# -- spans open below the memo ---------------------------------------------------


class TestSpans:
    @given(**_LAW_INPUTS)
    def test_spans_open_only_on_misses(self, seed, rate, ids):
        """One ``backend.cdx`` span per memo miss, none per hit; each
        span books the retries and virtual backoff its miss spent."""
        api, _ = _faulty(seed, rate)
        tracer = Tracer()
        client = CdxBackend(api, retry_policy=MASKING, tracer=tracer)
        for query in _queries(ids) + _queries(ids):
            client.query(query)

        spans = [s for s in tracer.spans if s.kind == "backend.cdx"]
        assert len(spans) == client.misses == len(set(ids))
        assert sum(s.attrs.get("retries", 0) for s in spans) == api.injected
        assert sum(s.virtual_ms for s in spans) == (
            client.retry_counters.backoff_ms
        )

    @given(**_LAW_INPUTS)
    def test_responses_identical_with_and_without_tracer(
        self, seed, rate, ids
    ):
        """A tracer is an observer: traced and untraced clients over
        identically seeded injectors answer byte-identically and spend
        the same retries."""
        traced_api, _ = _faulty(seed, rate)
        bare_api, _ = _faulty(seed, rate)
        traced = CdxBackend(traced_api, retry_policy=MASKING, tracer=Tracer())
        bare = CdxBackend(bare_api, retry_policy=MASKING)
        for query in _queries(ids):
            assert traced.query(query) == bare.query(query)
            assert traced.archived_urls(query) == bare.archived_urls(query)
        assert traced.retry_counters == bare.retry_counters
        assert (traced.hits, traced.misses) == (bare.hits, bare.misses)


# -- every retry re-enters the fault check ---------------------------------------


class TestRetryReentersFaults:
    @given(**_LAW_INPUTS)
    def test_every_transient_clears_under_masking(self, seed, rate, ids):
        """Each attempt consults the fault channels again, so a
        transient's attempt counter advances until it clears: under an
        ample budget nothing gives up, and each channel raises exactly
        its drawn depth per key."""
        api, inner = _faulty(seed, rate)
        client = CdxBackend(api, retry_policy=MASKING)
        for query in _queries(ids):
            assert client.archived_urls(query) == (query.url,)

        keys = [f"urls:{query!r}" for query in set(_queries(ids))]
        assert client.retry_counters.giveups == 0
        assert api.rate_limit_channel.injected == sum(
            api.rate_limit_channel.depth(key) for key in keys
        )
        assert api.error_channel.injected == sum(
            api.error_channel.depth(key) for key in keys
        )
        assert inner.calls == Counter(keys)


# -- the differential refactor proof -------------------------------------------


def stack_scenarios() -> dict[str, tuple[FaultPlan | None, object, int]]:
    """Differential scenarios: name -> (fault plan, retry policy, workers).

    The masked pairs prove fault+retry layering is inert; the parallel
    pairs prove the sharded stack merges byte-identically; the
    unretried net scenario pins the *degraded* report too (confinement
    is covered by the chaos tier, byte-stability by this digest).
    """
    masked_plan = FaultPlan.transient_everywhere(rate=0.2, seed=5)
    return {
        "clean-serial": (None, None, 1),
        "clean-parallel": (None, None, 3),
        "masked-serial": (masked_plan, DEFAULT_MASKING_POLICY, 1),
        "masked-parallel": (masked_plan, DEFAULT_MASKING_POLICY, 3),
        "net-unretried-serial": (
            FaultPlan.transient_net(rate=0.2, seed=5), None, 1
        ),
    }


def stack_digests() -> dict[str, str]:
    """Render every scenario's report of the golden world; sha256 each."""
    world = generate_world(GOLDEN_CONFIG)
    digests: dict[str, str] = {}
    for name, (faults, retry_policy, workers) in stack_scenarios().items():
        report = Study.from_world(
            world, faults=faults, retry_policy=retry_policy
        ).run(executor=StudyExecutor(workers=workers))
        rendered = render_markdown_report(report, title=f"stack golden: {name}")
        digests[name] = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    return digests


def test_stack_differential_digests_match_pre_refactor_goldens(
    stack_golden, update_goldens
):
    """Every scenario (clean/masked x serial/parallel, plus unretried
    net faults) renders a report whose digest matches the goldens
    committed from the pre-refactor wrapper implementations — and the
    committed file pins exactly these scenarios, no more and no fewer."""
    digests = stack_digests()
    if update_goldens:
        stack_golden.path.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n"
        )
    assert json.loads(stack_golden.path.read_text()) == digests
