"""Benchmark-suite configuration."""

import sys
from pathlib import Path

# Make `import common` (and `tests.reference`, the test-only reference
# implementations) work regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))
