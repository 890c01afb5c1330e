"""Whether numpy is importable, decided once at import time.

Two kernels run on numpy when it is installed, because there it
measurably wins: the MinHash of a page and the §3 soft-404 batch of
shingle similarities (both in :mod:`repro.textsim.shingles`). Each
has a pure-Python twin with identical values, which a clean
``pip install repro`` (no ``repro[numpy]`` extra) runs instead; every
other numeric kernel has one stdlib implementation.

This module sits below both ``repro.textsim`` and ``repro.analysis``
on purpose: it imports nothing from ``repro``, so either side can use
it without creating an import cycle.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:
    np = None

__all__ = ["BACKEND", "np"]

#: "numpy" when numpy imported, else "stdlib".
BACKEND: str = "numpy" if np is not None else "stdlib"
