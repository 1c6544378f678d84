"""One set-up launch: import rfeas, then parse and build a workload's problems.

Run by ``run.py`` in a fresh interpreter; the wall time of the whole launch
is one sample of ``setup_s``.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

from program import load_rfeas

if __name__ == "__main__":
    load_rfeas(Path.cwd())
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).build()
