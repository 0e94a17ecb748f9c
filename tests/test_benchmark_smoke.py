"""The benchmark's own self-test, run as part of the test suite: a change
that renames or stops calling a boundary the benchmark traces (such as
`functors.push_star`, `quiver.local_ops` or `linalg.char_poly`) fails here
rather than only when the benchmark runs."""

import os
import subprocess
import sys

SMOKE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "smoke.py")


def test_benchmark_smoke_passes():
    done = subprocess.run([sys.executable, SMOKE], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
