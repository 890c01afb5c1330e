"""Integration tests: the generated world behaves like the paper's.

These run against the session-scoped ``small_world`` (1,300 links) and
its study report. Assertions are deliberately loose — they check the
causal structure and the direction of every effect, not calibrated
percentages (benchmarks handle those at full scale).
"""

import sys

import pytest

from repro.analysis.copies import census_link
from repro.clock import SimTime
from repro.dataset.collector import Collector
from repro.dataset.planner import Disposition, SiteKind
from repro.dataset.sampler import sample_iabot_marked
from repro.net.status import Outcome
from repro.wiki.encyclopedia import PERMADEAD_CATEGORY
from repro.wiki.templates import IABOT_USERNAME

#: Small worlds pinned by ``tests/golden/world_oracle.json``, as
#: ``(n_links, seed, wnrt_coverage, eventstream_coverage,
#: sweep_shards)``. They vary the size, the seed, both trigger eras'
#: coverage and the sweep shard count, so a change to world
#: generation that keeps the two ``world_digest.json`` worlds but
#: moves some other world still fails.
ORACLE_WORLDS = (
    (100, 1, 0.50, 0.75, 8),
    (100, 7, 0.00, 0.00, 1),
    (120, 23, 1.00, 1.00, 8),
    (150, 2, 0.50, 0.75, 4),
    (150, 31, 0.20, 0.90, 2),
    (180, 3, 0.90, 0.20, 8),
    (200, 4, 0.50, 0.75, 16),
    (200, 57, 0.00, 1.00, 8),
    (220, 5, 1.00, 0.00, 3),
    (250, 6, 0.50, 0.75, 8),
    (250, 99, 0.35, 0.60, 12),
    (260, 8, 0.50, 0.50, 1),
    (280, 9, 0.75, 0.75, 6),
    (300, 10, 0.50, 0.75, 8),
    (300, 12, 0.10, 0.30, 8),
    (320, 13, 0.60, 0.95, 5),
    (350, 14, 0.50, 0.75, 10),
    (360, 2022, 0.50, 0.75, 8),
    (380, 15, 0.25, 0.40, 4),
    (400, 16, 0.50, 0.75, 8),
)


def _oracle_name(config) -> str:
    n_links, seed, wnrt, eventstream, shards = config
    return (
        f"links{n_links}_seed{seed}_wnrt{wnrt:.2f}"
        f"_es{eventstream:.2f}_shards{shards}"
    )


class TestWorldGeneration:
    def test_world_is_deterministic(self, small_world, world_golden):
        from repro.dataset.worldgen import WorldConfig, generate_world

        again = generate_world(
            WorldConfig(n_links=1300, target_sample=1300, seed=42)
        )
        assert len(again.store) == len(small_world.store)
        assert again.bot.stats.marked_permadead == (
            small_world.bot.stats.marked_permadead
        )
        assert sorted(again.truth) == sorted(small_world.truth)
        assert world_golden.digest(again) == world_golden.digest(small_world)

    def test_world_matches_golden(self, small_world, world_golden):
        assert world_golden.digest(small_world) == world_golden.section(
            "small_world_1300_seed42", small_world
        )

    def test_pipeline_world_matches_golden(self, world_golden):
        from repro.dataset.worldgen import WorldConfig, generate_world

        world = generate_world(
            WorldConfig(n_links=300, target_sample=300, seed=11)
        )
        assert world_golden.digest(world) == world_golden.section(
            "world_300_seed11", world
        )

    @pytest.mark.parametrize(
        "config", ORACLE_WORLDS, ids=lambda config: _oracle_name(config)
    )
    def test_oracle_world_matches_golden(
        self, config, world_golden, world_oracle
    ):
        from repro.dataset.worldgen import WorldConfig, generate_world

        n_links, seed, wnrt, eventstream, shards = config
        world = generate_world(
            WorldConfig(
                n_links=n_links, target_sample=n_links, seed=seed,
                wnrt_coverage=wnrt, eventstream_coverage=eventstream,
                sweep_shards=shards,
            )
        )
        # Read before the digest, which resolves every pending sketch.
        misses = world.crawler._sketcher.misses

        def record() -> dict:
            return {**world_golden.digest(world), "sketch_misses": misses}

        assert record() == world_oracle.section(_oracle_name(config), record)

    def test_bot_did_substantial_work(self, small_world):
        stats = small_world.bot.stats
        assert stats.marked_permadead > 100
        assert stats.patched > 50
        assert stats.links_alive > 0

    def test_category_nonempty(self, small_world):
        titles = small_world.encyclopedia.articles_in_category(PERMADEAD_CATEGORY)
        assert len(titles) > 50

    def test_archive_populated(self, small_world):
        assert len(small_world.store) > 10_000
        assert small_world.store.url_count() > 1_000

    def test_marking_dates_spread_over_years(self, small_world):
        collector = Collector(small_world.encyclopedia, small_world.site_rankings)
        collected = collector.collect()
        years = {link.marked_at.year for link in collected}
        assert len(years) >= 5  # rolling sharded sweeps, not one batch

    def test_stays_alive_links_never_marked(self, small_world):
        collector = Collector(small_world.encyclopedia)
        marked_urls = {link.url for link in collector.collect()}
        for url, truth in small_world.truth.items():
            if truth.disposition is Disposition.STAYS_ALIVE:
                assert url not in marked_urls

    def test_marked_links_were_actually_dead_when_marked(self, small_world):
        """IABot never marks a link that worked at its check time."""
        collector = Collector(small_world.encyclopedia)
        collected = sample_iabot_marked(collector.collect(), k=120, seed=1)
        fetcher = small_world.fetcher()
        for link in collected:
            result = fetcher.fetch(link.url, link.marked_at)
            assert result.final_status != 200, link.url


class TestPayOnce:
    """Generation pays per distinct page and URL, not per request."""

    def test_renders_parses_and_psl_lookups(self, monkeypatch):
        import repro.urls.parse as parse_module
        from repro.dataset.worldgen import WorldConfig, generate_world
        from repro.net.fetch import FetchResult
        from repro.textsim import content
        from repro.urls.psl import PublicSuffixList

        renders, reads, parses, lookups = [], [], [], []
        words = content._words_from_digest
        body = FetchResult.body
        parse_url = parse_module.parse_url
        domain_of = PublicSuffixList.registrable_domain

        def counting_words(seed, count):
            renders.append(seed)
            return words(seed, count)

        def counting_body(result):
            reads.append(result.url)
            return body.fget(result)

        def counting_parse(url):
            parses.append(url)
            return parse_url(url)

        def counting_domain(psl, host):
            lookups.append(host)
            return domain_of(psl, host)

        monkeypatch.setattr(content, "_words_from_digest", counting_words)
        monkeypatch.setattr(FetchResult, "body", property(counting_body))
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, "parse_url", None) is parse_url
            ):
                monkeypatch.setattr(module, "parse_url", counting_parse)
        # Start from an empty URL memo, as a fresh process does.
        monkeypatch.setattr(parse_module, "_interned", {}, raising=False)
        monkeypatch.setattr(
            PublicSuffixList, "registrable_domain", counting_domain
        )

        world = generate_world(
            WorldConfig(n_links=300, target_sample=300, seed=11)
        )

        # Page text is rendered only for bodies something reads.
        assert len(renders) <= len(reads)
        # Each URL string is parsed about once.
        assert len(parses) <= 1.1 * len(set(parses))
        # The public suffix list is read once per archived host.
        hosts = {
            parse_url(url).host_lower for url in world.store.all_urls()
        }
        assert len(lookups) <= len(hosts)

        # The study after generation shares the memo: it parses only
        # the URL strings it is the first to see, each once.
        from repro.analysis.study import Study

        seen = set(parses)
        del parses[:]
        Study.from_world(world).run()
        assert parses
        assert len(parses) <= len(set(parses) - seen)


class TestCollector:
    def test_history_mining_matches_truth(self, small_world):
        collector = Collector(small_world.encyclopedia)
        collected = collector.collect()
        assert len(collected) > 100
        for link in collected[:200]:
            truth = small_world.truth.get(link.url)
            assert truth is not None
            assert link.posted_at.same_day(truth.posted_at)

    def test_marker_username_mined(self, small_world):
        collector = Collector(small_world.encyclopedia)
        collected = collector.collect()
        markers = {link.marked_by for link in collected}
        assert IABOT_USERNAME in markers

    def test_article_limit(self, small_world):
        collector = Collector(small_world.encyclopedia)
        limited = collector.collect(article_limit=10)
        full = collector.collect()
        assert 0 < len(limited) <= len(full)

    def test_rankings_attached(self, small_world):
        collector = Collector(small_world.encyclopedia, small_world.site_rankings)
        dataset = collector.to_dataset(collector.collect()[:50])
        assert any(r.site_ranking is not None for r in dataset.records)


class TestStudyReport:
    def test_sample_composition(self, small_report, small_world):
        assert small_report.sample_size > 150
        for record in small_report.dataset.records:
            assert record.marked_by == IABOT_USERNAME

    def test_figure4_buckets_all_populated(self, small_report):
        counts = small_report.counts
        assert counts[Outcome.HTTP_404] > 0
        assert counts[Outcome.DNS_FAILURE] > 0
        assert counts[Outcome.HTTP_200] > 0
        assert sum(counts.values()) == small_report.sample_size

    def test_majority_dead_today(self, small_report):
        counts = small_report.counts
        dead = counts[Outcome.DNS_FAILURE] + counts[Outcome.HTTP_404]
        assert dead / small_report.sample_size > 0.5  # paper: over 70%

    def test_some_links_alive_again(self, small_report, small_world):
        assert small_report.n_genuinely_alive > 0
        # Every genuinely-alive link must be a revival/redirect case.
        alive_urls = {
            v.url for v in small_report.soft404_verdicts if v.genuinely_alive
        }
        for url in alive_urls:
            truth = small_world.truth[url]
            # Revived pages, late redirects, and flaky sites that
            # happened to answer today are all legitimate "works now"
            # mechanisms; anything else would be a classifier bug.
            assert (
                truth.disposition
                in (Disposition.MOVED_REDIRECT_LATER, Disposition.REVIVED)
                or truth.site_kind is SiteKind.FLAKY
            ), (url, truth.disposition, truth.site_kind)

    def test_soft404s_outnumber_genuinely_alive(self, small_report):
        # Paper: 1,650 raw 200s but only 305 genuinely alive.
        assert small_report.n_final_200 > small_report.n_genuinely_alive

    def test_pre_marking_200_copies_exist(self, small_report):
        # The §4.1 timeout casualties: a real, nonzero population.
        assert small_report.n_pre_marking_200 > 0

    def test_pre_marking_200_caused_by_timeouts(self, small_report, small_world):
        """Links with usable pre-marking copies would have been patched
        had the availability lookup answered in time."""
        assert small_report.n_pre_marking_200 < small_report.sample_size * 0.3

    def test_3xx_copy_population(self, small_report):
        assert small_report.n_rest_with_pre_3xx > 0
        assert small_report.n_valid_redirect_copy > 0
        assert small_report.n_valid_redirect_copy <= small_report.n_rest_with_pre_3xx

    def test_valid_redirects_are_moves(self, small_report, small_world):
        """Validated archived redirects must come from genuinely moved
        pages, not blanket redirect-home behaviour."""
        from repro.analysis.redirects import RedirectValidator

        validator = RedirectValidator(small_world.cdx)
        for census in small_report.censuses:
            if census.has_pre_marking_200 or not census.has_pre_marking_3xx:
                continue
            for snapshot in census.pre_marking_3xx[:4]:
                if validator.validate(snapshot).valid:
                    truth = small_world.truth[census.record.url]
                    assert truth.disposition is Disposition.MOVED_PROMPT_REDIRECT
                    break

    def test_never_archived_population(self, small_report):
        assert small_report.n_never_archived > 0
        assert (
            small_report.n_rest_with_any_copy + small_report.n_never_archived
            == small_report.n_rest
        )

    def test_first_post_marking_copy_mostly_erroneous(self, small_report):
        # Paper: 95%; any healthy world should be far above half.
        if small_report.n_with_post_marking_copy > 20:
            assert small_report.frac_first_post_marking_erroneous > 0.8

    def test_temporal_gaps_long_tailed(self, small_report):
        gaps = small_report.temporal.gaps_days
        assert len(gaps) > 30
        gaps = sorted(gaps)
        median = gaps[len(gaps) // 2]
        assert median > 90  # months-to-years, the §5.1 headline

    def test_typos_found_and_correct(self, small_report, small_world):
        report = small_report.typos
        assert len(report) > 0
        for finding in report.findings:
            truth = small_world.truth[finding.record.url]
            assert truth.disposition is Disposition.TYPO

    def test_typo_corrections_point_to_real_pages(self, small_report, small_world):
        fetcher = small_world.fetcher()
        posted_ok = 0
        for finding in small_report.typos.findings:
            result = fetcher.fetch(
                finding.corrected_url, small_world.truth[finding.record.url].posted_at
            )
            if result.final_status == 200:
                posted_ok += 1
        assert posted_ok >= len(small_report.typos.findings) * 0.8

    def test_spatial_gaps_mostly_page_specific(self, small_report):
        # Figure 6: most never-archived links have archived neighbours.
        spatial = small_report.spatial
        if len(spatial.records) > 20:
            assert len(spatial.directory_gaps) < len(spatial.records)
            assert len(spatial.hostname_gaps) <= len(spatial.directory_gaps)

    def test_query_deep_links_never_archived(self, small_report, small_world):
        never_urls = {r.record.url for r in small_report.spatial.records}
        for url, truth in small_world.truth.items():
            if truth.disposition is Disposition.QUERY_DEEP:
                census = census_link(
                    next(
                        (r for r in small_report.dataset.records if r.url == url),
                        None,
                    )
                    or _dummy_record(url),
                    small_world.cdx,
                )
                assert not census.has_any_copy

    def test_summary_renders(self, small_report):
        text = small_report.summary()
        assert "permanently dead links studied" in text
        assert "§4.1" in text


def _dummy_record(url):
    from repro.dataset.records import LinkRecord

    return LinkRecord(
        url=url,
        article_title="x",
        posted_at=SimTime(0.0),
        marked_at=SimTime(1.0),
        marked_by=IABOT_USERNAME,
    )


class TestFigure3Representativeness:
    def test_dataset_vs_random_sample_similar(self, small_world):
        """The paper's September-2022 check: an alphabetical-prefix
        dataset and a fully random sample have similar distributions."""
        from repro.reporting.cdf import ecdf

        collector = Collector(small_world.encyclopedia, small_world.site_rankings)
        all_links = collector.collect()
        if len(all_links) < 120:
            pytest.skip("not enough marked links at this scale")
        half = collector.collect(
            article_limit=len(collector.category_titles()) // 2
        )
        ds_a = collector.to_dataset(sample_iabot_marked(half, 150, seed=1))
        ds_b = collector.to_dataset(sample_iabot_marked(all_links, 150, seed=2))
        years_a = ecdf(ds_a.posting_years())
        years_b = ecdf(ds_b.posting_years())
        assert years_a.ks_distance(years_b) < 0.25
