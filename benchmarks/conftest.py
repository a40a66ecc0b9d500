"""Import paths for the benchmark's own tests: ``python3 -m pytest benchmarks``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
