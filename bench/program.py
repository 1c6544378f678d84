"""Load the rfeas sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path


def load_rfeas(root: Path):
    """Import ``rfeas`` from ``root/src``; exit with an error if it is not there."""
    package = root / "src" / "rfeas"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no rfeas sources under {package}; run from the root of an rfeas checkout")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import rfeas

    if Path(rfeas.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported rfeas from {rfeas.__file__}, not from {package}")
    return rfeas
