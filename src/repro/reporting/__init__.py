"""Report generation: ECDFs, text tables, figure series, summaries.

The benchmark harness uses these to print the same rows and series the
paper reports — Figure 3's dataset CDFs, Figure 4's outcome counts,
Figure 5's gap CDF, Figure 6's coverage CDFs, and the headline-number
table — alongside the paper's values for comparison. The paper's
headline values live once, in :mod:`.headlines`.
"""

from .cdf import Ecdf, ecdf
from .figures import render_bar_chart, render_cdf
from .plot import ascii_cdf_plot
from .report import render_markdown_report
from .summary import ComparisonRow, ComparisonTable
from .tables import render_table

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "Ecdf",
    "ascii_cdf_plot",
    "ecdf",
    "render_markdown_report",
    "render_bar_chart",
    "render_cdf",
    "render_table",
]

# NOTE: .golden is intentionally not imported here — it pulls in the
# full study pipeline, which plain figure-rendering consumers (the
# benchmark harness) should not pay for. Import repro.reporting.golden
# directly where the snapshot machinery is needed.
