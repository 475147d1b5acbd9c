import os
import subprocess
import sys


def test_benchmark_selftest_passes():
    # the benchmark's own tests import only the standard library, numpy and
    # benchmark/*.py, and write no files
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    proc = subprocess.run([sys.executable, os.path.join("benchmark", "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 failed" in proc.stdout.splitlines()[-1]
