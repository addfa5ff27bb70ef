"""The benchmark's wrappers find every name they patch, and the code still
calls them.

``perfbench/layers.py`` patches rmaws callables by name, from outside the
package. This runs its ``install`` in a fresh interpreter, so a rename
that would break the benchmark fails the tier-1 suite too, not only
``python3 -m pytest perfbench``. The same interpreter then runs a small
fault enumeration and checks that each per-layer span the enumeration
reports was recorded: a refactor that stops calling a patched name, or
calls it through another reference, would otherwise drop that layer's
metric without an error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENUMERATE_TRACED = """
import layers, spans
tracer = spans.Tracer()
layers.install(tracer)
from rmaws.faultsim import FaultSpec, ScenarioSpec, SendSpec, ServiceProfile, enumerate_and_check
template = ScenarioSpec(
    services=[ServiceProfile(name="svc", delay_ms=50, output_size=64)],
    sends=[SendSpec(t=100, service="svc", payload_size=25, http_timeout_ms=200,
                    push_wait_ms=300, max_trials=3)])
report = enumerate_and_check(template, [FaultSpec(kind="drop_http_response", send=0, trial=1)])
assert report.ok and report.total_scenarios == 2
expected = {"faultsim.run", "faultsim.check", "envelope.encode_request",
            "envelope.decode_request", "server.core.submit", "server.core.finish",
            "client.machine.start"}
missing = expected - {span[0] for span in tracer.spans}
assert not missing, sorted(missing)
"""


def test_benchmark_layers_install():
    path = os.pathsep.join([os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")])
    proc = subprocess.run([sys.executable, "-c", ENUMERATE_TRACED],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
