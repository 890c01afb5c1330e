"""Text similarity and synthetic page content.

Section 3's soft-404 detector compares the body of a suspect URL
against the body of a deliberately invalid sibling URL using
*k-shingling based similarity* (Broder et al., 1997). This package
implements shingling and Jaccard similarity, plus the synthetic content
generator the simulated web serves pages from.
"""

from .content import ContentGenerator
from .shingles import jaccard, shingle_set, shingle_similarity

__all__ = [
    "ContentGenerator",
    "jaccard",
    "shingle_set",
    "shingle_similarity",
]
