"""``python -m benchmarks.ledger`` / ``python3 benchmarks/ledger/__main__.py``."""

import sys
from pathlib import Path

# Spawned shard workers re-import this file as ``__mp_main__``; they must
# find ``repro`` too, and must not start a benchmark of their own.
_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main())
