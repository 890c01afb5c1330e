"""Public Suffix List matching.

The paper maps each URL's hostname to its registrable domain using the
Public Suffix List (via python-publicsuffix2). We implement the PSL
algorithm itself — longest-match over suffix rules, with wildcard
(``*.ck``) and exception (``!www.ck``) rules — over a bundled rule set
that covers the suffixes our synthetic web generator emits plus the
common real-world ones that appear in the paper's examples.

Algorithm (https://publicsuffix.org/list/):

1. Split the hostname into labels.
2. Find all rules that match; a rule matches when its labels equal the
   tail of the hostname's labels (``*`` matches any single label).
3. If an exception rule matches, the public suffix is that rule minus
   its leftmost label. Otherwise the prevailing rule is the matching
   rule with the most labels (default rule: ``*``... no — default is
   the rightmost label alone).
4. The registrable domain is the public suffix plus one more label.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import UrlError

#: Bundled rules. A deliberately curated subset of the real PSL: every
#: suffix the synthetic URL generator can produce, plus suffixes from
#: URLs the paper cites (e.g. parliament.tas.gov.au, nli.org.il,
#: main-spitze.de, lnr.fr, baltimoresun.com, znaci.net).
BUNDLED_RULES = """
// generic
com
org
net
edu
gov
mil
int
info
biz
name
museum
// country-code basics
de
fr
il
org.il
ac.il
gov.il
net.il
uk
co.uk
org.uk
ac.uk
gov.uk
au
com.au
net.au
org.au
edu.au
gov.au
tas.gov.au
nsw.gov.au
vic.gov.au
jp
co.jp
ne.jp
or.jp
ac.jp
cn
com.cn
net.cn
org.cn
ru
su
nl
it
es
se
no
fi
dk
pl
cz
at
ch
be
eu
ca
us
in
co.in
org.in
net.in
br
com.br
org.br
nz
co.nz
org.nz
govt.nz
mx
com.mx
ar
com.ar
za
co.za
kr
co.kr
tw
com.tw
hk
com.hk
sg
com.sg
ie
pt
gr
hu
ro
tr
com.tr
ua
com.ua
// wildcard + exception examples (kept to exercise the algorithm)
ck
*.ck
!www.ck
*.kawasaki.jp
!city.kawasaki.jp
"""


def _parse_rules(text: str) -> frozenset[str]:
    rules = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        rules.add(line.lower())
    return frozenset(rules)


class PublicSuffixList:
    """PSL matcher over a set of rules.

    Instances are immutable; :func:`default_psl` returns a shared
    instance built from :data:`BUNDLED_RULES`. Each instance memoizes
    :meth:`registrable_domain` per hostname as given (answers only: a
    bad hostname raises on every call).
    """

    def __init__(self, rules: frozenset[str] | None = None) -> None:
        self._rules = rules if rules is not None else _parse_rules(BUNDLED_RULES)
        self._exceptions = frozenset(
            rule[1:] for rule in self._rules if rule.startswith("!")
        )
        self._plain = frozenset(
            rule for rule in self._rules if not rule.startswith("!")
        )
        self._domains: dict[str, str] = {}

    @classmethod
    def from_text(cls, text: str) -> "PublicSuffixList":
        """Build from PSL-format text (``//`` comments, one rule per line)."""
        return cls(_parse_rules(text))

    def public_suffix(self, hostname: str) -> str:
        """The public suffix of ``hostname`` per the PSL algorithm."""
        labels = self._labels(hostname)
        # Exception rules win and strip their leftmost label.
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            if candidate in self._exceptions:
                return ".".join(labels[start + 1:])
        # Otherwise, the longest matching plain/wildcard rule prevails.
        best_len = 0
        for start in range(len(labels)):
            tail = labels[start:]
            candidate = ".".join(tail)
            wildcard = ".".join(["*"] + tail[1:]) if tail else ""
            if candidate in self._plain or wildcard in self._plain:
                best_len = max(best_len, len(tail))
        if best_len == 0:
            best_len = 1  # default rule: "*" — the rightmost label
        return ".".join(labels[-best_len:])

    def registrable_domain(self, hostname: str) -> str:
        """Public suffix plus one label; the paper's "domain" of a URL.

        If the hostname *is* a public suffix (no extra label exists),
        the hostname itself is returned so every URL maps somewhere.
        """
        domain = self._domains.get(hostname)
        if domain is None:
            domain = self._domains[hostname] = self._registrable(hostname)
        return domain

    def _registrable(self, hostname: str) -> str:
        labels = self._labels(hostname)
        suffix = self.public_suffix(hostname)
        suffix_len = len(suffix.split(".")) if suffix else 0
        if len(labels) <= suffix_len:
            return hostname.lower().rstrip(".")
        return ".".join(labels[-(suffix_len + 1):])

    @staticmethod
    def _labels(hostname: str) -> list[str]:
        host = hostname.lower().rstrip(".")
        if not host:
            raise UrlError("empty hostname")
        if host.startswith("."):
            raise UrlError(f"hostname starts with '.': {hostname!r}")
        labels = host.split(".")
        if any(not label for label in labels):
            raise UrlError(f"hostname has an empty label: {hostname!r}")
        return labels


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """The shared PSL built from the bundled rules."""
    return PublicSuffixList()


def registrable_domain(hostname: str) -> str:
    """Module-level convenience wrapper over :func:`default_psl`."""
    return default_psl().registrable_domain(hostname)
