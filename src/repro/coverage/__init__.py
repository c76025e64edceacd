"""Coverage collection (kcov/gcov analogue) and AFL edge bitmaps."""

from repro.coverage.bitmap import MAP_SIZE, CoverageBitmap, VirginMap
from repro.coverage.kcov import KcovTracer, executable_lines
from repro.coverage.report import CoverageReport, CoverageTable

__all__ = [
    "KcovTracer",
    "executable_lines",
    "CoverageBitmap",
    "VirginMap",
    "MAP_SIZE",
    "CoverageReport",
    "CoverageTable",
]
