"""``python -m pytest bench/tests`` — outside the tier-1 ``testpaths``.

Puts the checkout (for ``bench``) and its ``src`` (for ``repro``) on the
import path, so the suite runs with or without ``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
