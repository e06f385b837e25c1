"""Start-up cost of a cold `ghc` request: spawn to ready of fresh
interpreters that run `import ghcert.cli`, and each one's own memory.

    PYTHONPATH=src python3 tools/startup.py [N]
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python3 tools/startup.py 40

Starts N interpreters (default 20), one after another. Each imports
`ghcert.cli`, notes the time, and reports its peak resident memory as
`VmHWM` from /proc/self/status. That is the child's own figure: on Linux
`ru_maxrss` keeps the high-water mark of the image a child was spawned
from, so it never reads below the spawning process. The second form
compiles ghcert's source in every child, as the benchmark runs it.

Prints one JSON line: N, the quartiles and median of spawn-to-ready in
seconds, each child's VmHWM in MB with their median, and which of
hashlib, _hashlib, dataclasses and inspect the import loaded (in any child).
"""

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HEAVY = ("hashlib", "_hashlib", "dataclasses", "inspect")

CHILD = """
import time
import ghcert.cli
ready = time.perf_counter()
import json, sys
with open("/proc/self/status") as fh:
    status = dict(line.split(":", 1) for line in fh)
print(json.dumps({"ready": ready, "vmhwm_kb": int(status["VmHWM"].split()[0]),
                  "loaded": sorted(set(%r) & set(sys.modules))}))
""" % (HEAVY,)


def spawn(env):
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True)
    child = json.loads(proc.stdout)
    return child["ready"] - start, child["vmhwm_kb"] / 1024, child["loaded"]


def main(n):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = [spawn(env) for _ in range(n)]
    q1, median, q3 = statistics.quantiles([r for r, _, _ in runs], n=4)
    hwm = [round(m, 2) for _, m, _ in runs]
    print(json.dumps({
        "n": n,
        "ready_s": {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)},
        "vmhwm_mb_median": round(statistics.median(hwm), 2),
        "vmhwm_mb": hwm,
        "loaded": sorted({m for _, _, loaded in runs for m in loaded}),
    }))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
