"""Set-up probe: import mfcontrol, then build a run config, problem and grid.

    python3 perfbench/setup_probe.py <config file> <wall-clock start>

Prints the seconds elapsed since <wall-clock start>, a `time.time()` value
the parent takes just before it starts this process, so the figure covers
interpreter start-up, the import of mfcontrol and the build.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfcontrol.config import parse_config  # noqa: E402

parse_config(sys.argv[1]).build()
print(repr(time.time() - float(sys.argv[2])))
