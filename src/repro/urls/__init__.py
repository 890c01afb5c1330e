"""URL parsing, classification, and generation utilities.

The paper's methodology is URL-centric: hostnames are extracted as "the
portion of the URL between the protocol and the first '/'", hostnames
map to registrable domains via the Public Suffix List, directory
prefixes ("same prefix until the last '/'") drive both the archived-
redirect validation (§4.2) and the spatial coverage analysis (§5.2),
and typo detection uses edit distance over full URLs (§5.2).
"""

from .editdist import edit_distance, one_edit_apart
from .parse import ParsedUrl, directory_prefix, hostname_of, parse_url
from .psl import PublicSuffixList, default_psl, registrable_domain

__all__ = [
    "ParsedUrl",
    "PublicSuffixList",
    "default_psl",
    "directory_prefix",
    "edit_distance",
    "hostname_of",
    "one_edit_apart",
    "parse_url",
    "registrable_domain",
]
