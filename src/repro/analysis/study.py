"""The end-to-end study: §2.4 collection through §5.2 analysis.

:class:`Study` runs the entire measurement pipeline the paper
describes, against any world, and produces a :class:`StudyReport`
carrying every headline number and every figure series. The pipeline
only touches public interfaces — live-web fetches, the Availability
and CDX APIs, article wikitext and histories — never the world
generator's ground truth.

Execution is delegated to a :class:`~repro.exec.StudyExecutor`: the
per-record stages (§3 probe, §4 census, §4.2 redirect validation) run
in contiguous shards (one by default) behind memoizing CDX/fetch
caches, and every run attaches a :class:`~repro.exec.StudyStats` with
phase timings and cache hit rates. Results are merged in record order,
so a seeded run produces a byte-identical report at any shard count.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..archive.cdx import CdxApi
from ..clock import SimTime
from ..dataset.collector import Collector
from ..dataset.records import Dataset, LinkRecord
from ..dataset.sampler import sample_iabot_marked
from ..backends.stacks import BackendStack
from ..exec import (
    MAX_REDIRECT_COPIES_PER_LINK,
    StudyExecutor,
    StudyStats,
)
from ..exec.stats import backend_counts
from ..faults import FaultPlan
from ..net.fetch import Fetcher
from ..net.status import Outcome
from ..obs.trace import Tracer
from ..retry import RetryPolicy
from ..rng import RngRegistry
from .copies import CopyCensus
from .live_status import LiveProbe, outcome_counts
from .soft404 import Soft404Detector, Soft404Verdict
from .spatial import SpatialReport, spatial_analysis
from .temporal import TemporalReport, temporal_analysis
from .typos import TypoReport, find_typos

__all__ = [
    "MAX_REDIRECT_COPIES_PER_LINK",
    "Study",
    "StudyReport",
    "assemble_report",
]


@dataclass
class StudyReport:
    """Everything the paper reports, measured from one world."""

    dataset: Dataset
    probes: list[LiveProbe]
    counts: dict[Outcome, int]
    soft404_verdicts: list[Soft404Verdict]
    censuses: list[CopyCensus]
    temporal: TemporalReport
    spatial: SpatialReport
    typos: TypoReport

    # §3 -------------------------------------------------------------------
    n_final_200: int = 0
    n_genuinely_alive: int = 0
    n_alive_via_redirect: int = 0
    n_with_post_marking_copy: int = 0
    n_first_post_marking_erroneous: int = 0

    # §4 -------------------------------------------------------------------
    n_pre_marking_200: int = 0
    n_rest: int = 0
    n_rest_with_any_copy: int = 0
    n_never_archived: int = 0
    n_rest_with_pre_3xx: int = 0
    n_valid_redirect_copy: int = 0

    #: Execution accounting for the run that produced this report.
    #: Excluded from equality: two runs of the same seeded study are
    #: the same *measurement* whatever their wall times were.
    stats: StudyStats | None = field(default=None, compare=False)

    #: Per-record stage outcomes (probe + census + validation verdicts
    #: + provenance), in record order — the raw material
    #: :class:`repro.service.LinkStatusIndex` snapshots into a
    #: queryable form. Excluded from equality because each outcome
    #: carries a :class:`~repro.obs.provenance.RecordProvenance` whose
    #: cache-hit splits are execution-shape-dependent; everything the
    #: report *measures* from them is already in the compared fields.
    outcomes: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def sample_size(self) -> int:
        """Number of permanently dead links studied."""
        return len(self.dataset)

    # -- §3 convenience fractions -----------------------------------------------

    @property
    def frac_final_200(self) -> float:
        """Share of the sample answering 200 today (paper: ~16%)."""
        return self.n_final_200 / max(self.sample_size, 1)

    @property
    def frac_genuinely_alive(self) -> float:
        """The paper's "3% of permanently dead links work today"."""
        return self.n_genuinely_alive / max(self.sample_size, 1)

    @property
    def frac_alive_via_redirect(self) -> float:
        """Of the genuinely alive, how many redirect first (paper: 79%)."""
        return self.n_alive_via_redirect / max(self.n_genuinely_alive, 1)

    @property
    def frac_first_post_marking_erroneous(self) -> float:
        """The paper's 95% single-check-is-enough statistic."""
        return self.n_first_post_marking_erroneous / max(
            self.n_with_post_marking_copy, 1
        )

    # -- §4 convenience fractions ---------------------------------------------------

    @property
    def frac_pre_marking_200(self) -> float:
        """The paper's 11% availability-timeout casualties."""
        return self.n_pre_marking_200 / max(self.sample_size, 1)

    @property
    def frac_patchable_via_redirect(self) -> float:
        """The paper's ~5% (481 valid of 3,776, over the whole sample)."""
        return self.n_valid_redirect_copy / max(self.sample_size, 1)

    def summary(self) -> str:
        """Multi-line human-readable digest of the whole study."""
        lines = [
            f"permanently dead links studied: {self.sample_size}",
            "live web today (Fig 4): "
            + ", ".join(
                f"{outcome.value}={count}"
                for outcome, count in self.counts.items()
            ),
            (
                f"§3  final-200: {self.n_final_200} "
                f"({self.frac_final_200:.1%}); genuinely alive: "
                f"{self.n_genuinely_alive} ({self.frac_genuinely_alive:.1%}), "
                f"of which {self.frac_alive_via_redirect:.0%} redirect first"
            ),
            (
                f"§3  first post-marking copy erroneous: "
                f"{self.n_first_post_marking_erroneous}/"
                f"{self.n_with_post_marking_copy} "
                f"({self.frac_first_post_marking_erroneous:.0%})"
            ),
            (
                f"§4.1 had initial-200 copies before marking: "
                f"{self.n_pre_marking_200} ({self.frac_pre_marking_200:.1%})"
            ),
            (
                f"§4.2 of the remaining {self.n_rest}: "
                f"{self.n_rest_with_pre_3xx} had 3xx copies; "
                f"{self.n_valid_redirect_copy} validate as non-erroneous "
                f"({self.frac_patchable_via_redirect:.1%} of sample)"
            ),
            (
                f"§5   copies: {self.n_rest_with_any_copy} archived / "
                f"{self.n_never_archived} never archived; "
                f"{len(self.temporal.with_pre_posting_copy)} pre-posting; "
                f"{len(self.temporal.same_day)} same-day captures, "
                f"{len(self.temporal.same_day_erroneous)} erroneous first-up"
            ),
            (
                f"§5.2 coverage gaps: {len(self.spatial.directory_gaps)} "
                f"directory-level, {len(self.spatial.hostname_gaps)} "
                f"hostname-level; typos found: {len(self.typos)}"
            ),
        ]
        return "\n".join(lines)


@dataclass
class Study:
    """A configured study, ready to run.

    ``retry_policy`` is the study client's resilience posture: it
    drives the fetcher's transient-failure retries and is handed to
    the executor for its caching wrappers (every shard and the later
    phases alike). ``None`` — the default, and the paper's configuration —
    never retries.
    """

    records: list[LinkRecord]
    fetcher: Fetcher
    cdx: CdxApi
    at: SimTime
    rngs: RngRegistry = field(default_factory=lambda: RngRegistry(20220315))
    retry_policy: RetryPolicy | None = None
    #: Per-URL probe instants (URL-keyed; unlisted records probe at
    #: ``at``). The live pipeline's from-scratch reference: a study
    #: configured with the probe-time map computed from the full event
    #: log, which incremental maintenance must reproduce byte-for-byte.
    at_overrides: dict[str, SimTime] = field(default_factory=dict)
    #: Freeze each record's CDX horizon at its probe instant (see
    #: :class:`~repro.archive.cdx.AsOfCdx`). Off for the classic batch
    #: study, on for the live posture.
    bound_archive: bool = False

    @classmethod
    def from_world(
        cls,
        world,
        sample_size: int | None = None,
        article_limit: int | None = None,
        seed: int = 20220315,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "Study":
        """Collect and sample the dataset from a generated world.

        Mirrors §2.4: crawl the category (optionally only the first
        ``article_limit`` articles), mine histories, sample
        ``sample_size`` IABot-marked links.

        ``faults`` studies the *same* world through sabotaged probes:
        the (fault plan, retry policy) pair becomes a
        :class:`~repro.backends.stacks.BackendStack` and the stack
        assembles the clients — see its docstring for the invariants
        the differential harness depends on.
        """
        collector = Collector(world.encyclopedia, world.site_rankings)
        collected = collector.collect(article_limit=article_limit)
        k = sample_size if sample_size is not None else world.config.target_sample
        sampled = sample_iabot_marked(collected, k, seed=seed)
        dataset = collector.to_dataset(sampled, description="our dataset")
        stack = BackendStack(faults=faults, retry_policy=retry_policy)
        return cls(
            records=dataset.records,
            fetcher=stack.fetcher(world),
            cdx=stack.cdx(world.cdx),
            at=world.study_time,
            rngs=RngRegistry(seed),
            retry_policy=retry_policy,
        )

    def run(
        self,
        executor: StudyExecutor | None = None,
        tracer: Tracer | None = None,
    ) -> StudyReport:
        """Execute §3, §4, and §5 and assemble the report.

        ``executor`` controls sharding; the default runs one shard.
        Any shard count yields the same report — only the attached
        :class:`~repro.exec.StudyStats` differs.

        ``tracer`` records the full span hierarchy (study → phase →
        shard → record → backend call) of the run; shards buffer
        their spans and the executor grafts them back in.
        Tracing never changes the measurement: a traced run's report
        is byte-identical to an untraced one, and one-shard and N-shard
        traced runs agree on every aggregate metric (span ids and
        wall timings excluded, by definition).
        """
        executor = executor if executor is not None else StudyExecutor()
        stats = StudyStats()
        dataset = Dataset(records=list(self.records), description="our dataset")

        with (
            tracer.span(
                "study", kind="study", sim=self.at,
                records=len(self.records),
            )
            if tracer is not None
            else nullcontext()
        ) as span:
            # §3 probe + §4 census + §4.2 validation: the sharded stage.
            with stats.phase("probe+census", tracer=tracer):
                stage = executor.execute(
                    self.records, self.fetcher, self.cdx, self.at,
                    stats, tracer,
                    at_overrides=self.at_overrides or None,
                    bound_archive=self.bound_archive,
                    retry_policy=self.retry_policy,
                )
            stats.shards = stage.shards
            return assemble_report(
                dataset=dataset,
                outcomes=list(stage.outcomes),
                fetcher=stage.fetcher,
                cdx=stage.cdx,
                at=self.at,
                rngs=self.rngs,
                stats=stats,
                tracer=tracer,
                at_overrides=self.at_overrides or None,
            )


def assemble_report(
    *,
    dataset: Dataset,
    outcomes: list,
    fetcher,
    cdx,
    at: SimTime,
    rngs: RngRegistry,
    stats: StudyStats,
    tracer: Tracer | None = None,
    at_overrides: dict[str, SimTime] | None = None,
) -> StudyReport:
    """Run the parent phases over per-record outcomes and build the
    report.

    This is everything in a study after the sharded stage: §3 soft-404
    screening (sequential RNG stream, record order), the §4 census
    splits, and the §5 temporal/spatial/typo aggregations. Split out
    so the live pipeline can fold cached outcomes for clean records
    together with freshly executed dirty ones and still assemble a
    report byte-identical to a from-scratch run — the parent phases
    are aggregations, cheap to recompute in full each generation.

    ``fetcher`` / ``cdx`` are the stage's parent-side memo backends;
    ``at_overrides`` hands the soft-404 detector each record's probe
    instant. Their counters fold into ``stats`` once the phases end —
    the memo counts and retries of the two stacks, plus what the raw
    fetcher under ``fetcher`` retried during these phases — so batch
    and live studies account for the parent phases the same way.
    """
    overrides = at_overrides or {}
    with backend_counts(stats.registry, fetcher, cdx):
        probes = [outcome.probe for outcome in outcomes]
        counts = outcome_counts(probes)

        # §3: soft-404 screening of the 200s. Stays in the parent —
        # the detector consumes a sequential RNG stream, so probing in
        # record order is what keeps seeded runs reproducible; the
        # shingle similarities of the whole population are computed by
        # one batch kernel.
        detector = Soft404Detector(fetcher, rngs.stream("soft404"))
        with stats.phase("soft404", tracer=tracer):
            screened = [probe for probe in probes if probe.returned_200]
            verdicts: list[Soft404Verdict] = detector.check_many(
                [probe.record.url for probe in screened],
                at,
                ats=(
                    [overrides.get(p.record.url, at) for p in screened]
                    if overrides
                    else None
                ),
            )
            alive_probes: list[LiveProbe] = [
                probe
                for probe, verdict in zip(screened, verdicts)
                if verdict.genuinely_alive
            ]
        stats.registry.counter("analysis.soft404.batched").inc(len(screened))

        # §4: archived-copy census splits.
        censuses = [outcome.census for outcome in outcomes]
        pre200 = [c for c in censuses if c.has_pre_marking_200]
        rest = [c for c in censuses if not c.has_pre_marking_200]
        rest_with_copy = [c for c in rest if c.has_any_copy]
        never_archived = [c for c in rest if not c.has_any_copy]
        rest_with_3xx = [c for c in rest if c.has_pre_marking_3xx]
        n_valid_redirect = sum(
            1 for o in outcomes if o.has_valid_redirect_copy
        )

        # §3's single-check justification (needs the census).
        with_post = [c for c in censuses if c.first_post_marking is not None]
        n_post_erroneous = sum(
            1 for o in outcomes if o.first_post_marking_erroneous
        )

        # §5.1 temporal + §5.2 spatial/typos, over the seeded caches.
        with stats.phase("temporal", tracer=tracer):
            temporal = temporal_analysis(rest_with_copy, cdx)
        never_records = [c.record for c in never_archived]
        with stats.phase("spatial", tracer=tracer):
            spatial = spatial_analysis(never_records, cdx)
        with stats.phase("typos", tracer=tracer):
            typos = find_typos(never_records, cdx)

        return StudyReport(
            dataset=dataset,
            probes=probes,
            counts=counts,
            soft404_verdicts=verdicts,
            censuses=censuses,
            temporal=temporal,
            spatial=spatial,
            typos=typos,
            n_final_200=sum(1 for p in probes if p.returned_200),
            n_genuinely_alive=len(alive_probes),
            n_alive_via_redirect=sum(1 for p in alive_probes if p.redirected),
            n_with_post_marking_copy=len(with_post),
            n_first_post_marking_erroneous=n_post_erroneous,
            n_pre_marking_200=len(pre200),
            n_rest=len(rest),
            n_rest_with_any_copy=len(rest_with_copy),
            n_never_archived=len(never_archived),
            n_rest_with_pre_3xx=len(rest_with_3xx),
            n_valid_redirect_copy=n_valid_redirect,
            stats=stats,
            outcomes=tuple(outcomes),
        )
