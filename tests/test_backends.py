"""The backend middleware kernel: layer laws and the differential proof.

Three families of guarantees pin :mod:`repro.backends`:

1. **Layer-ordering laws** (property tests): the behaviours the
   canonical order ``metrics -> cache -> trace -> retry -> fault ->
   base`` encodes, replayed over randomized keys, fault rates, and
   observer placements.
2. **Order validation**: :func:`validate_stack_order` accepts every
   lawful composition and rejects inverted, duplicated, or unknown
   behavioural layers.
3. **The differential refactor proof**: every scenario digest in
   ``tests/golden/stack_differential.json`` — committed from the
   pre-refactor wrappers — is recomputed through the composed stacks
   and must match byte-for-byte (re-recorded, only for a deliberate
   behaviour change, by ``REPRO_UPDATE_GOLDENS=1 pytest
   tests/test_backends.py``).
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    CacheLayer,
    CdxBackend,
    FaultGate,
    FaultLayer,
    FetchBackend,
    Layer,
    MetricsLayer,
    Op,
    RetryLayer,
    SpanSpec,
    TraceLayer,
    layer_names,
    validate_stack_order,
)
from repro.analysis.study import Study
from repro.dataset.worldgen import generate_world
from repro.errors import DnsServfail
from repro.exec import StudyExecutor
from repro.faults.inject import FaultChannel
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.reporting.golden import GOLDEN_CONFIG
from repro.reporting.report import render_markdown_report
from repro.retry import DEFAULT_MASKING_POLICY, RetryCounters, RetryPolicy

#: Fast, ample retry budget: masks any transient depth the tests draw.
MASKING = RetryPolicy(
    max_retries=8, base_delay_ms=1.0, max_delay_ms=4.0, budget_ms=1e9
)


class _FlakyOp:
    """A base backend whose first ``depth[key]`` attempts per key fail
    transiently — the ground truth the cache/retry laws count against.
    """

    def __init__(self, depths: dict) -> None:
        self.depths = dict(depths)
        self.calls = 0
        self.attempts: dict = {}

    def call(self, req):
        self.calls += 1
        seen = self.attempts.get(req, 0)
        self.attempts[req] = seen + 1
        if seen < self.depths.get(req, 0):
            raise DnsServfail(str(req))
        return ("ok", req)


# -- law 1: cache above retry --------------------------------------------------


class TestCacheAboveRetry:
    @given(
        depths=st.dictionaries(
            st.integers(0, 7), st.integers(0, 3), min_size=1, max_size=8
        ),
        repeats=st.integers(1, 4),
    )
    def test_masked_transient_is_one_backend_recovery(self, depths, repeats):
        """A retry-masked transient costs depth+1 base attempts *once*;
        every repeat of the request is a memo hit that never re-enters
        the retry loop."""
        base = _FlakyOp(depths)
        counters = RetryCounters()
        stack = CacheLayer(RetryLayer(base, policy=MASKING, counters=counters))
        validate_stack_order(stack)

        for _ in range(repeats):
            for key in depths:
                assert stack.call(key) == ("ok", key)

        for key, depth in depths.items():
            # exactly one recovery per key, regardless of repeats
            assert base.attempts[key] == depth + 1
        assert counters.retries == sum(depths.values())
        assert stack.misses == len(depths)
        assert stack.hits == (repeats - 1) * len(depths)

    def test_retry_above_cache_would_recount(self):
        """The anti-law, concretely: with the cache *below* retry the
        memo can capture nothing (failures propagate before a store),
        so the inversion is also rejected by the validator."""
        inverted = RetryLayer(CacheLayer(_FlakyOp({}), key_fn=str))
        with pytest.raises(ValueError, match="canonical layer order"):
            validate_stack_order(inverted)


# -- law 2: fault decisions are independent of cache position ------------------


def _fault_stack(seed: int, spec: FaultSpec, cached: bool):
    channel = FaultChannel(seed, "law", spec)
    base = Op("base", lambda req: ("ok", req))
    gate = FaultGate(
        channel=channel,
        key_fn=lambda req: str(req),
        exc_fn=lambda req: DnsServfail(str(req)),
    )
    stack = RetryLayer(FaultLayer(base, gates=(gate,)), policy=MASKING)
    if cached:
        stack = CacheLayer(stack)
    validate_stack_order(stack)
    return stack, channel, base


class TestFaultDecisionsVsCachePosition:
    @given(
        rate=st.floats(0.05, 0.95),
        seed=st.integers(0, 10_000),
        keys=st.lists(st.integers(0, 9), min_size=1, max_size=16),
    )
    def test_injected_faults_and_responses_identical(self, rate, seed, keys):
        """Identically seeded channels make the same decisions whether
        or not a cache sits above: depth is a pure function of (seed,
        channel, key), first contact drives every injection, and memo
        hits never re-consult the channel (a cleared transient stays
        cleared either way)."""
        spec = FaultSpec(rate=rate, max_repeats=3)
        cached, ch_c, base_c = _fault_stack(seed, spec, cached=True)
        uncached, ch_u, base_u = _fault_stack(seed, spec, cached=False)

        for key in keys:
            assert cached.call(key) == uncached.call(key)

        assert ch_c.injected == ch_u.injected
        for key in set(keys):
            assert ch_c.depth(str(key)) == ch_u.depth(str(key))
        # a faulted attempt raises at the gate, so the base sees exactly
        # one (successful) call per distinct key — cached or not
        assert base_c.calls == len(set(keys))
        assert base_u.calls >= base_c.calls


# -- law 3: observers are order-free -------------------------------------------

_SPEC = SpanSpec(kind="law", name_fn=str)


def _observed_stack(trace_slot, metrics_slot, tracer, registry, seed, spec):
    """The behavioural chain cache -> retry -> fault -> base with the
    observer layers spliced in at slots 0 (outermost) .. 3 (innermost).
    """
    channel = FaultChannel(seed, "law", spec)
    base = Op("base", lambda req: ("ok", req))
    gate = FaultGate(
        channel=channel,
        key_fn=lambda req: str(req),
        exc_fn=lambda req: DnsServfail(str(req)),
    )
    stack = base

    def observe(stack, slot):
        if trace_slot == slot:
            stack = TraceLayer(stack, tracer, _SPEC)
        if metrics_slot == slot:
            stack = MetricsLayer(stack, registry, "law")
        return stack

    stack = observe(stack, 3)
    stack = FaultLayer(stack, gates=(gate,))
    stack = observe(stack, 2)
    stack = RetryLayer(stack, policy=MASKING)
    stack = observe(stack, 1)
    stack = CacheLayer(stack)
    stack = observe(stack, 0)
    return stack


class TestObserverPermutation:
    @settings(deadline=None)
    @given(
        trace_slot=st.integers(0, 3),
        metrics_slot=st.integers(0, 3),
        seed=st.integers(0, 10_000),
        keys=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    )
    def test_responses_invariant_under_observer_placement(
        self, trace_slot, metrics_slot, seed, keys
    ):
        """Trace and metrics layers are observers: wherever they sit,
        every placement validates and yields byte-identical responses
        to the bare behavioural stack."""
        spec = FaultSpec(rate=0.4, max_repeats=2)
        bare = _observed_stack(-1, -1, None, None, seed, spec)
        observed = _observed_stack(
            trace_slot,
            metrics_slot,
            Tracer(),
            MetricsRegistry(),
            seed,
            spec,
        )
        validate_stack_order(bare)
        validate_stack_order(observed)
        for key in keys:
            assert observed.call(key) == bare.call(key)

    def test_passthrough_observers_record_nothing(self):
        """tracer=None / metrics=None observers are strict pass-throughs."""
        base = Op("base", lambda req: req * 2)
        stack = MetricsLayer(TraceLayer(base, None, _SPEC), None, "law")
        assert stack.call(21) == 42
        assert base.calls == 1


# -- validate_stack_order ------------------------------------------------------


class _UnknownLayer(Layer):
    layer_kind = "wat"


class TestValidateStackOrder:
    def _base(self):
        return Op("base", lambda req: req)

    def test_canonical_order_passes(self):
        stack = MetricsLayer(
            CacheLayer(
                TraceLayer(
                    RetryLayer(FaultLayer(self._base(), gates=())),
                    None,
                    _SPEC,
                ),
            ),
            None,
            "ok",
        )
        validate_stack_order(stack)
        assert layer_names(stack) == [
            "metrics", "cache", "trace", "retry", "fault", "base",
        ]

    def test_fault_above_retry_rejected(self):
        stack = FaultLayer(RetryLayer(self._base()), gates=())
        with pytest.raises(ValueError, match="canonical layer order"):
            validate_stack_order(stack)

    def test_duplicate_behavioural_layer_rejected(self):
        stack = CacheLayer(CacheLayer(self._base()))
        with pytest.raises(ValueError, match="duplicate"):
            validate_stack_order(stack)

    def test_unknown_layer_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_stack_order(_UnknownLayer(self._base()))

    def test_bare_base_passes(self):
        validate_stack_order(self._base())


# -- concrete assemblies keep the canonical shape ------------------------------


class _NullFetcher:
    retry_counters = RetryCounters()

    def fetch(self, url, at):  # pragma: no cover - never called here
        raise AssertionError


class _NullCdx:
    def query(self, request):  # pragma: no cover
        raise AssertionError

    def archived_urls(self, request):  # pragma: no cover
        raise AssertionError


class TestConcreteStackShapes:
    def test_fetch_backend_layering(self):
        stack = FetchBackend(_NullFetcher())
        assert layer_names(stack._cache) == ["cache", "trace", "retry", "base"]

    def test_cdx_backend_layering(self):
        stack = CdxBackend(_NullCdx())
        assert layer_names(stack._cache) == ["cache", "trace", "retry", "base"]


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
