"""Set-up probe: start mudet in this fresh interpreter and stop at its first trial.

Usage::

    python3 perfbench/setup_probe.py SRC_DIR CONFIG OUT_CSV

``run.py`` starts this script in a child process, noting ``time.monotonic()``
just before, and reads the ``time.monotonic()`` this script prints when
``mudet.bench.trial_stream`` is first called. The difference is the set-up a
user of ``mudet simulate`` waits for: interpreter start, every import
(numpy and whatever else mudet loads), config parse, constellations, and
``fec.build_code`` on coded runs. The process exits at that first trial.
Exit code 3 means no trial was reached; an import error exits non-zero
with the traceback on standard error.
"""

import os
import sys
import time

src, config, out = sys.argv[1:4]
sys.path.insert(0, src)

from mudet import bench, cli  # noqa: E402


def first_trial(*args):
    print(time.monotonic(), flush=True)
    os._exit(0)


bench.trial_stream = first_trial
cli.main(["simulate", "--config", config, "--out", out])
sys.exit(3)
