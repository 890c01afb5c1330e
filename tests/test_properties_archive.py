"""Property-based tests for the archive store, CDX and availability
layers.

The differential tests compare each API against a brute-force filter
over :meth:`SnapshotStore.snapshots`, the store's reference read.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.availability import AvailabilityApi, AvailabilityPolicy
from repro.archive.cdx import CdxApi, CdxQuery, MatchType
from repro.archive.snapshot import Snapshot
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.urls.parse import intern_url
from repro.urls.psl import default_psl

_leaves = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_hosts = st.sampled_from(
    ["a.example.com", "b.example.com", "c.example.org"]
)
_statuses = st.sampled_from([200, 301, 404, 503])
_days = st.floats(min_value=0.0, max_value=8000.0, allow_nan=False)


@st.composite
def snapshots(draw):
    host = draw(_hosts)
    directory = draw(st.sampled_from(["/x/", "/x/y/", "/z/"]))
    leaf = draw(_leaves)
    url = f"http://{host}{directory}{leaf}.html"
    status = draw(_statuses)
    location = f"http://{host}/" if status == 301 else None
    return Snapshot(
        url=url,
        captured_at=SimTime(draw(_days)),
        initial_status=status,
        redirect_location=location,
        final_status=200 if status == 301 else status,
        final_url=url if status != 301 else f"http://{host}/",
    )


class TestStoreProperties:
    @given(st.lists(snapshots(), max_size=40))
    @settings(max_examples=60)
    def test_insertion_order_irrelevant(self, rows):
        forward = SnapshotStore()
        backward = SnapshotStore()
        for row in rows:
            forward.add(row)
        for row in reversed(rows):
            backward.add(row)
        for url in {row.url for row in rows}:
            # Captures at the *same instant* keep insertion order (the
            # real CDX breaks such ties by sub-second timestamp), so
            # compare as multisets.
            assert sorted(forward.snapshots(url), key=repr) == sorted(
                backward.snapshots(url), key=repr
            )
        assert forward.all_urls() == backward.all_urls()

    @given(st.lists(snapshots(), max_size=40))
    @settings(max_examples=60)
    def test_per_url_rows_sorted(self, rows):
        store = SnapshotStore()
        for row in rows:
            store.add(row)
        for url in store.all_urls():
            times = [s.captured_at.days for s in store.snapshots(url)]
            assert times == sorted(times)


class TestCdxProperties:
    @given(st.lists(snapshots(), max_size=40))
    @settings(max_examples=60)
    def test_scopes_nest(self, rows):
        store = SnapshotStore()
        for row in rows:
            store.add(row)
        cdx = CdxApi(store)
        for url in store.all_urls():
            exact = set(r.url for r in cdx.query(CdxQuery(url=url)))
            directory = set(
                r.url
                for r in cdx.query(
                    CdxQuery(url=url, match_type=MatchType.DIRECTORY)
                )
            )
            host = set(
                r.url
                for r in cdx.query(CdxQuery(url=url, match_type=MatchType.HOST))
            )
            domain = set(
                r.url
                for r in cdx.query(
                    CdxQuery(url=url, match_type=MatchType.DOMAIN)
                )
            )
            assert exact <= directory <= host <= domain

    @given(st.lists(snapshots(), max_size=40))
    @settings(max_examples=40)
    def test_status_filter_subsets(self, rows):
        store = SnapshotStore()
        for row in rows:
            store.add(row)
        cdx = CdxApi(store)
        for url in store.all_urls():
            all_rows = cdx.query(CdxQuery(url=url, match_type=MatchType.HOST))
            ok_rows = cdx.query(
                CdxQuery(url=url, match_type=MatchType.HOST, initial_status=200)
            )
            assert set(ok_rows) <= set(all_rows)
            assert all(r.initial_status == 200 for r in ok_rows)


# Few URLs and whole days, so scopes overlap, several captures share a
# day, and drawn bounds land exactly on capture days.
_HOSTS = ("a.example.com", "b.example.com", "c.example.org")
_PATHS = ("/x/a.html", "/x/b.html", "/x/y/c.html", "/z/d.html")
_URLS = tuple(f"http://{host}{path}" for host in _HOSTS for path in _PATHS)
#: Query URLs: every archived URL plus string prefixes of them.
_QUERY_URLS = _URLS + tuple(
    f"http://{host}{prefix}" for host in _HOSTS for prefix in ("/x/", "/x/y")
)
_DAY = st.integers(min_value=0, max_value=12)
_TIME = st.one_of(st.none(), _DAY.map(lambda day: SimTime(float(day))))


@st.composite
def stores(draw):
    """A store of captures, failed ones included; each capture has its
    own sketch, so equal-day captures compare unequal."""
    store = SnapshotStore()
    for index in range(draw(st.integers(min_value=0, max_value=30))):
        url = draw(st.sampled_from(_URLS))
        status = draw(st.sampled_from([200, 200, 301, 404, None]))
        location = f"{url}?moved" if status == 301 else None
        store.add(
            Snapshot(
                url=url,
                captured_at=SimTime(float(draw(_DAY))),
                initial_status=status,
                redirect_location=location,
                final_status=status,
                final_url=location or url,
                sketch=(index,),
            )
        )
    return store


@st.composite
def cdx_queries(draw):
    return CdxQuery(
        url=draw(st.sampled_from(_QUERY_URLS)),
        match_type=draw(st.sampled_from(list(MatchType))),
        initial_status=draw(st.sampled_from([None, 200, 301, 404])),
        from_time=draw(_TIME),
        to_time=draw(_TIME),
        limit=draw(st.integers(min_value=0, max_value=4)),
        exclude_self=draw(st.booleans()),
    )


def _in_scope(url: str, request: CdxQuery) -> bool:
    query = intern_url(request.url)
    parsed = intern_url(url)
    match_type = request.match_type
    if match_type is MatchType.EXACT:
        return url == request.url
    if request.exclude_self and url == request.url:
        return False
    if match_type is MatchType.DIRECTORY:
        return parsed.directory == query.directory
    if match_type is MatchType.PREFIX:
        return url.startswith(request.url)
    if match_type is MatchType.HOST:
        return parsed.host_lower == query.host_lower
    domain = default_psl().registrable_domain
    return domain(parsed.host_lower) == domain(query.host_lower)


def _brute_rows(store: SnapshotStore, request: CdxQuery) -> list[Snapshot]:
    """Every non-failed capture ``request`` matches, by URL then time."""
    return [
        row
        for url in store.all_urls()
        if _in_scope(url, request)
        for row in store.snapshots(url, include_failed=True)
        if not row.failed
        and request.initial_status in (None, row.initial_status)
        and (request.from_time is None or row.captured_at >= request.from_time)
        and (request.to_time is None or row.captured_at < request.to_time)
    ]


def _limited(rows: list, limit: int) -> tuple:
    return tuple(rows[:limit] if limit else rows)


class TestCdxDifferential:
    @given(stores(), cdx_queries())
    @settings(max_examples=300)
    def test_query_matches_brute_force(self, store, request):
        expected = _limited(_brute_rows(store, request), request.limit)
        assert CdxApi(store).query(request) == expected

    @given(stores(), cdx_queries())
    @settings(max_examples=300)
    def test_archived_urls_match_brute_force(self, store, request):
        urls = list(dict.fromkeys(row.url for row in _brute_rows(store, request)))
        assert CdxApi(store).archived_urls(request) == _limited(
            urls, request.limit
        )


def _brute_closest(store, url, around, before):
    """The initial-200 capture nearest ``around``, strictly before
    ``before``; ``min`` keeps the first of equally near ones."""
    return min(
        (
            row
            for row in store.snapshots(url, include_failed=True)
            if row.initial_status == 200
            and (before is None or row.captured_at < before)
        ),
        key=lambda row: abs(row.captured_at.days - around.days),
        default=None,
    )


class TestAvailabilityDifferential:
    @given(stores(), _TIME)
    @settings(max_examples=200)
    def test_lookup_matches_brute_force(self, store, before):
        # Every whole-day target: some fall exactly between two copies.
        api = AvailabilityApi(store, AvailabilityPolicy(seed="differential"))
        for url in store.all_urls():
            for around_day in range(13):
                around = SimTime(float(around_day))
                result = api.lookup(url, around, before=before)
                assert result.snapshot == _brute_closest(
                    store, url, around, before
                )
