"""Run ``python -m ecpf ARGS...`` and write its peak RSS in kB to OUT.

    python peak_rss.py OUT ARGS...

Run with ``src`` on PYTHONPATH.  The peak is the VmHWM line of
/proc/self/status, read at exit.  A parent's ``RUSAGE_CHILDREN`` cannot give
it: a child's ``ru_maxrss`` keeps the parent's resident size from before the
exec, while VmHWM counts only the new program image.
"""

import atexit
import runpy
import sys

out = sys.argv.pop(1)


def report() -> None:
    with open("/proc/self/status") as status, open(out, "w") as f:
        f.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


atexit.register(report)
runpy.run_module("ecpf", run_name="__main__", alter_sys=True)
