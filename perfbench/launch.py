"""Start the interlock CLI exactly as ``python -m interlock`` does.

Before handing over to the CLI it writes one line to stderr,
``perfbench-imported <t>``, where t is the CLOCK_MONOTONIC time at which
``interlock.cli`` finished importing.  The harness takes the spawn time on
the same clock, so the difference is the process's set-up time.  Everything
after that line (stdout, exit code, any error record on stderr) is the
CLI's own.

    PYTHONPATH=src python3 perfbench/launch.py --jsonl --jobs 2 census --max 60
"""

import runpy
import sys
import time

import interlock.cli  # noqa: F401  (the import whose end is timed)

sys.stderr.write(f"perfbench-imported {time.clock_gettime(time.CLOCK_MONOTONIC)!r}\n")
sys.stderr.flush()
sys.argv[0] = "interlock"
runpy.run_module("interlock", run_name="__main__", alter_sys=True)
