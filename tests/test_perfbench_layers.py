"""The benchmark's wrappers find every name they patch.

``perfbench/layers.py`` patches rmaws callables by name, from outside the
package. This runs its ``install`` in a fresh interpreter, so a rename
that would break the benchmark fails the tier-1 suite too, not only
``python3 -m pytest perfbench``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_layers_install():
    path = os.pathsep.join([os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")])
    proc = subprocess.run([sys.executable, "-c", "import layers, spans; layers.install(spans.Tracer())"],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
