"""Fresh-interpreter set-up probe: import the CLI and load one op list.

Run as ``python3 bench/setup_probe.py OPS.json``.  It prints
``time.monotonic()`` at the moment the first op could be issued; the
runner subtracts the instant it spawned this process (the monotonic
clock is system-wide), so interpreter start-up counts and teardown does
not.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracsub.cli  # noqa: E402,F401  (the import is what is measured)

ops = json.loads(Path(sys.argv[1]).read_text())
print(repr(time.monotonic()), len(ops))
