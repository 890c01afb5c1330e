"""Differential verification of the fault-injection layer.

The harness studies one seeded world three ways — fault-free, faulted
with masking retries, faulted without retries — and pins down the
layer's two contracts:

1. **Masking**: under a transient-only :class:`FaultPlan`, a retry
   budget of at least ``plan.required_retries()`` yields a report
   byte-identical to the fault-free run, serial or sharded.
2. **Confinement**: with retries off, live-web transients degrade the
   report only by moving probes into the Figure-4 failure buckets —
   DNS_FAILURE / TIMEOUT for a first-hop fault, OTHER for a fault on
   a redirect hop (the chain did not end in 200/404); every
   archive-side result stays untouched.

Unretried *archive* faults, by contrast, legitimately crash the
pipeline — a real study with no retry logic dies on a 429 — and the
harness asserts that too rather than papering over it.

Heavier sweeps (rate ladders, multi-seed matrices) carry the ``chaos``
marker and stay out of tier-1.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.study import Study, StudyReport
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.errors import ArchiveUnavailable, CdxRateLimited
from repro.exec import StudyExecutor
from repro.faults import (
    FaultChannel,
    FaultPlan,
    FaultSpec,
    FaultyAvailabilityApi,
    faulty_availability,
)
from repro.retry import DEFAULT_MASKING_POLICY, RetryPolicy
from repro.iabot.archive_client import IABotArchiveClient
from repro.net.status import Outcome

#: The probe outcomes an unmasked live-web transient may degrade into:
#: DNS_FAILURE / TIMEOUT when the first hop fails, OTHER when a
#: redirect hop does (the fetcher reports the truncated chain).
FIGURE4_FAILURE_BUCKETS = frozenset(
    {Outcome.DNS_FAILURE, Outcome.TIMEOUT, Outcome.OTHER}
)


@pytest.fixture(scope="module")
def fault_world():
    """One seeded world every differential comparison shares."""
    return generate_world(WorldConfig(n_links=260, target_sample=200, seed=7))


@pytest.fixture(scope="module")
def baseline(fault_world) -> StudyReport:
    """The fault-free study of :func:`fault_world`."""
    return Study.from_world(fault_world).run()


def assert_reports_identical(a: StudyReport, b: StudyReport) -> None:
    """Field-for-field equality, ignoring execution-shape artifacts.

    ``stats`` (wall times) is skipped outright; ``outcomes`` is
    compared with per-record provenance stripped — provenance carries
    wall costs and cache-hit splits, which vary across runs, but every
    measurement field must not.
    """
    for f in dataclasses.fields(StudyReport):
        if f.name == "stats":
            continue
        if f.name == "outcomes":
            assert _sans_provenance(a.outcomes) == _sans_provenance(
                b.outcomes
            ), f.name
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def _sans_provenance(outcomes):
    if outcomes is None:
        return None
    return tuple(
        dataclasses.replace(outcome, provenance=None) for outcome in outcomes
    )


def assert_degradation_confined(
    baseline: StudyReport, degraded: StudyReport
) -> int:
    """Check retry-less net-fault degradation; return probes moved.

    Every probe either matches the fault-free run or landed in a
    Figure-4 failure bucket, and nothing downstream of the archive
    (censuses, temporal, spatial, typos) moved at all.
    """
    base_by_url = {p.record.url: p.result.outcome for p in baseline.probes}
    moved = 0
    for probe in degraded.probes:
        outcome = probe.result.outcome
        if outcome != base_by_url[probe.record.url]:
            moved += 1
            assert outcome in FIGURE4_FAILURE_BUCKETS, probe.record.url
    assert degraded.censuses == baseline.censuses
    assert degraded.temporal == baseline.temporal
    assert degraded.spatial == baseline.spatial
    assert degraded.typos == baseline.typos
    return moved


# -- determinism of the injection layer itself -------------------------------------


class TestFaultDeterminism:
    def test_channel_decisions_are_pure(self):
        spec = FaultSpec(rate=0.5, max_repeats=3)
        a = FaultChannel(11, "dns", spec)
        b = FaultChannel(11, "dns", spec)
        keys = [f"host{i}.example.com" for i in range(200)]
        assert [a.depth(k) for k in keys] == [b.depth(k) for k in keys]
        depths = [a.depth(k) for k in keys]
        assert any(d == 0 for d in depths)
        assert any(d > 0 for d in depths)
        assert all(0 <= d <= spec.max_repeats for d in depths)

    def test_should_fault_clears_after_depth(self):
        channel = FaultChannel(11, "dns", FaultSpec(rate=1.0, max_repeats=3))
        key = "flaky.example.com"
        depth = channel.depth(key)
        assert 1 <= depth <= 3
        observed = [channel.should_fault(key) for _ in range(depth + 4)]
        assert observed == [True] * depth + [False] * 4
        assert channel.injected == depth

    def test_permanent_faults_never_clear(self):
        channel = FaultChannel(11, "dns", FaultSpec(rate=1.0, permanent=True))
        assert all(channel.should_fault("down.example.com") for _ in range(64))

    def test_seeds_decorrelate_channels(self):
        spec = FaultSpec(rate=0.3, max_repeats=2)
        keys = [f"host{i}.example.com" for i in range(300)]
        one = [FaultChannel(1, "dns", spec).depth(k) for k in keys]
        two = [FaultChannel(2, "dns", spec).depth(k) for k in keys]
        assert one != two

    def test_same_plan_replays_the_same_degraded_report(self, fault_world):
        plan = FaultPlan.transient_net(rate=0.25, seed=5)
        first = Study.from_world(fault_world, faults=plan).run()
        second = Study.from_world(fault_world, faults=plan).run()
        assert first == second
        assert_reports_identical(first, second)


# -- the masking invariant ---------------------------------------------------------


class TestMaskingInvariant:
    def test_transient_net_masked_serial(self, fault_world, baseline):
        plan = FaultPlan.transient_net(rate=0.25, seed=5)
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run()
        assert report == baseline
        assert_reports_identical(report, baseline)
        assert report.stats.fetch_retries > 0
        assert report.stats.total_giveups == 0
        assert report.stats.backoff_ms > 0.0

    def test_transient_everywhere_masked_serial(self, fault_world, baseline):
        plan = FaultPlan.transient_everywhere(rate=0.2, seed=5)
        assert plan.transient_only
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run()
        assert report == baseline
        assert_reports_identical(report, baseline)
        assert report.stats.fetch_retries > 0
        assert report.stats.cdx_retries > 0
        assert report.stats.total_giveups == 0

    def test_transient_everywhere_masked_parallel(self, fault_world, baseline):
        plan = FaultPlan.transient_everywhere(rate=0.2, seed=5)
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run(StudyExecutor(workers=3))
        assert report == baseline
        assert_reports_identical(report, baseline)
        assert report.stats.shards == 3
        assert report.stats.total_retries > 0
        assert report.stats.total_giveups == 0

    def test_exactly_required_depth_suffices(self, fault_world, baseline):
        plan = FaultPlan.transient_everywhere(rate=0.2, seed=9, max_repeats=3)
        policy = RetryPolicy(max_retries=plan.required_retries())
        assert policy.max_retries == 6  # cdx error + rate-limit depths stack
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=policy
        ).run()
        assert report == baseline
        assert report.stats.total_giveups == 0


# -- retry-less degradation --------------------------------------------------------


class TestRetrylessDegradation:
    def test_net_faults_confined_to_figure4_buckets(self, fault_world, baseline):
        plan = FaultPlan.transient_net(rate=0.25, seed=5)
        degraded = Study.from_world(fault_world, faults=plan).run()
        assert degraded != baseline
        moved = assert_degradation_confined(baseline, degraded)
        assert moved > 0
        assert degraded.stats.total_retries == 0
        assert degraded.stats.total_giveups == 0

    def test_unretried_cdx_faults_crash_the_pipeline(self, fault_world):
        plan = FaultPlan.transient_archive(rate=0.2, seed=5)
        with pytest.raises((CdxRateLimited, ArchiveUnavailable)):
            Study.from_world(fault_world, faults=plan).run()

    def test_permanent_faults_defeat_retries(self, fault_world, baseline):
        plan = FaultPlan(
            seed=5,
            dns_servfail=FaultSpec(rate=0.25, permanent=True),
        )
        assert not plan.transient_only
        degraded = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run()
        assert degraded != baseline
        moved = assert_degradation_confined(baseline, degraded)
        assert moved > 0
        assert degraded.stats.fetch_giveups > 0


# -- availability-channel faults ---------------------------------------------------


class TestAvailabilityFaults:
    def _sample_lookups(self, world, client, n=60):
        records = []
        for site in sorted(world.web.sites(), key=lambda s: s.hostname)[:n]:
            for page in site.pages()[:1]:
                url = f"http://{site.hostname}{page.path_query}"
                records.append(
                    (url, client.find_copy(
                        url, world.study_time, world.study_time
                    ))
                )
        return records

    def test_spikes_push_bounded_lookups_over_timeout(self, fault_world):
        plan = FaultPlan(
            seed=3, availability_spike=FaultSpec(rate=1.0, max_repeats=1)
        )
        api = faulty_availability(fault_world.availability, plan)
        assert isinstance(api, FaultyAvailabilityApi)
        client = IABotArchiveClient(api, timeout_ms=1.0)
        results = self._sample_lookups(fault_world, client)
        assert all(copy is None for _, copy in results)
        assert client.timeouts == len(results)
        assert api.injected > 0

    def test_error_bursts_masked_by_retry(self, fault_world):
        clean = IABotArchiveClient(fault_world.availability, timeout_ms=None)
        expected = dict(self._sample_lookups(fault_world, clean))

        plan = FaultPlan(
            seed=3, availability_error=FaultSpec(rate=0.4, max_repeats=2)
        )
        api = faulty_availability(fault_world.availability, plan)
        retried = IABotArchiveClient(
            api,
            timeout_ms=None,
            retry_policy=RetryPolicy(max_retries=plan.required_retries()),
        )
        observed = dict(self._sample_lookups(fault_world, retried))
        assert observed == expected
        assert api.injected > 0
        assert retried.retry_counters.retries == api.injected
        assert retried.retry_counters.giveups == 0
        assert retried.errors == 0

    def test_error_bursts_unretried_become_not_archived(self, fault_world):
        plan = FaultPlan(
            seed=3, availability_error=FaultSpec(rate=0.4, max_repeats=2)
        )
        api = faulty_availability(fault_world.availability, plan)
        client = IABotArchiveClient(api, timeout_ms=None)
        results = self._sample_lookups(fault_world, client)
        faulted = [url for url, copy in results if copy is None]
        assert client.errors > 0
        assert client.errors <= len(faulted)


# -- chaos tier: heavier sweeps ----------------------------------------------------


@pytest.mark.chaos
class TestChaosMatrix:
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("plan_seed", [1, 2])
    def test_masking_holds_across_rates_and_seeds(
        self, fault_world, baseline, rate, plan_seed
    ):
        plan = FaultPlan.transient_everywhere(rate=rate, seed=plan_seed)
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run()
        assert report == baseline
        assert report.stats.total_giveups == 0

    def test_masking_holds_sharded_at_high_rate(self, fault_world, baseline):
        plan = FaultPlan.transient_everywhere(rate=0.5, seed=4, max_repeats=3)
        report = Study.from_world(
            fault_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run(StudyExecutor(workers=4))
        assert report == baseline
        assert report.stats.total_giveups == 0

    def test_degradation_grows_with_rate(self, fault_world, baseline):
        # Same plan seed: a key faulted at rate r is faulted at every
        # rate above r (the hit draw is thresholded), so the set of
        # failed probes — and the moved count — grows monotonically.
        moved = []
        for rate in (0.1, 0.3, 0.5):
            plan = FaultPlan.transient_net(rate=rate, seed=5)
            degraded = Study.from_world(fault_world, faults=plan).run()
            moved.append(assert_degradation_confined(baseline, degraded))
        assert moved == sorted(moved)
        assert moved[-1] > moved[0]
