"""Fingerprint every simulator run of the benchmark's fault enumeration.

Runs ``perfbench/faults_template.json`` (payloads drawn from
``random.Random(42)``) through ``enumerate_and_check``, first as is and
then with ``break_dedup``, and prints the number of runs, the number of
findings, and one SHA-256 over each run's ``Trace.to_jsonl()`` in
enumeration order. A change that must not alter simulated behaviour
prints the same values before and after it.

``sha256_sans_push_sizes`` hashes the same traces with every
``push_write`` event's ``bytes`` and the summary's ``wire.push_bytes``
set to 0. A change that alters only the size of a push frame keeps it.

    PYTHONPATH=src python tests/trace_digest.py

``tests/test_trace_digest.py`` compares these lines with
``tests/golden/trace_digest.txt`` on every test run; a change that
alters simulated behaviour updates that file and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import rmaws.faultsim.enumeration as enumeration  # noqa: E402
from workloads import load_template  # noqa: E402


def sans_push_sizes(trace):
    """``trace`` with the sizes of the frames the server writes on push
    connections set to 0."""
    events = [dict(e, bytes=0) if e["kind"] == "push_write" else e for e in trace.events]
    return dataclasses.replace(trace, events=events, wire=dict(trace.wire, push_bytes=0))


def fingerprint() -> list[str]:
    """The lines that ``main`` prints."""
    template, sites = load_template(random.Random(42))
    digest = hashlib.sha256()
    digest_sans_push_sizes = hashlib.sha256()
    runs = 0
    real_run = enumeration.run

    def hashing_run(scenario, **kwargs):
        nonlocal runs
        trace = real_run(scenario, **kwargs)
        digest.update(trace.to_jsonl().encode("utf-8"))
        digest_sans_push_sizes.update(sans_push_sizes(trace).to_jsonl().encode("utf-8"))
        runs += 1
        return trace

    enumeration.run = hashing_run
    try:
        findings = sum(len(enumeration.enumerate_and_check(template, sites,
                                                           break_dedup=broken).findings)
                       for broken in (False, True))
    finally:
        enumeration.run = real_run
    return [f"runs {runs}", f"findings {findings}", f"sha256 {digest.hexdigest()}",
            f"sha256_sans_push_sizes {digest_sans_push_sizes.hexdigest()}"]


def main() -> None:
    print("\n".join(fingerprint()))


if __name__ == "__main__":
    main()
