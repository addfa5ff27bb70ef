"""Fingerprint every simulator run of the benchmark's fault enumeration.

Runs ``perfbench/faults_template.json`` (payloads drawn from
``random.Random(42)``) through ``enumerate_and_check``, first as is and
then with ``break_dedup``. It prints the number of scenarios (``runs``,
the calls of ``enumeration.run``), the number of findings, and one
SHA-256 over the ``Trace.to_jsonl()`` of the trace each scenario gets,
in enumeration order. That trace is the same whether the simulator ran
the scenario or the enumeration's decision tree answered it with an
earlier run's trace. A change that must not alter simulated behaviour
prints the same values before and after it.

``sha256_sans_push_sizes`` hashes the same traces with every
``push_write`` event's ``bytes`` and the summary's ``wire.push_bytes``
set to 0. A change that alters only the size of a push frame keeps it.

``sha256_verdicts`` hashes, in the same order, each scenario's name and
the kind and detail of each violation that ``enumeration.check_invariants``
returns for its trace. A change to how the checker reaches its verdicts,
and not to what they are, keeps it.

    PYTHONPATH=src python tests/trace_digest.py

``tests/test_trace_digest.py`` compares these lines with
``tests/golden/trace_digest.txt`` on every test run; a change that
alters simulated behaviour updates that file and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
    digest_verdicts = hashlib.sha256()
    runs = 0
    real_run, real_check = enumeration.run, enumeration.check_invariants

    def hashing_run(scenario, **kwargs):
        nonlocal runs
        trace = real_run(scenario, **kwargs)
        digest.update(trace.to_jsonl().encode("utf-8"))
        digest_sans_push_sizes.update(sans_push_sizes(trace).to_jsonl().encode("utf-8"))
        runs += 1
        return trace

    def hashing_check(trace):
        violations = real_check(trace)
        verdict = [trace.scenario_name, [[v.kind, v.detail] for v in violations]]
        digest_verdicts.update((json.dumps(verdict) + "\n").encode("utf-8"))
        return violations

    enumeration.run, enumeration.check_invariants = hashing_run, hashing_check
    try:
        findings = sum(len(enumeration.enumerate_and_check(template, sites,
                                                           break_dedup=broken).findings)
                       for broken in (False, True))
    finally:
        enumeration.run, enumeration.check_invariants = real_run, real_check
    return [f"runs {runs}", f"findings {findings}", f"sha256 {digest.hexdigest()}",
            f"sha256_sans_push_sizes {digest_sans_push_sizes.hexdigest()}",
            f"sha256_verdicts {digest_verdicts.hexdigest()}"]


def main() -> None:
    print("\n".join(fingerprint()))


if __name__ == "__main__":
    main()
