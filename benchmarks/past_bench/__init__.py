"""past_bench: the repo's benchmark (see README.md beside this file).

Four workloads -- three through the live cluster, one through the
simulator -- each run in a fresh process, measured end to end with
tracing off; a second, traced run attributes the time to layers by
wrapping their public entry points from here, without touching them.

``python3 -m benchmarks.past_bench`` works from a bare checkout: the
package puts the repo's ``src`` on ``sys.path`` itself (the same
bootstrap ``benchmarks/perf_suite.py`` uses).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
