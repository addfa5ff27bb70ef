"""The simulator's fingerprint over the benchmark's fault enumeration
(see ``trace_digest.py``) matches ``golden/trace_digest.txt``."""

import pathlib

from trace_digest import fingerprint

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digest.txt"


def test_simulator_fingerprint_matches_golden():
    assert fingerprint() == GOLDEN.read_text(encoding="utf-8").splitlines()
