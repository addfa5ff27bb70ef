import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from rmaws.server.handlers import HandlerRegistry, make_synthetic, synthetic_body


class TestSyntheticBody:
    def test_known_answer(self):
        # shake_256(b"svc\x00p").digest(32)
        assert synthetic_body("svc", b"p", 32) == bytes.fromhex(
            "aafe3a944cb14dc0a1473ae88c7ccabc153a27a52019b5b1d339e1c26c5cbf33")

    # 600 bytes span several SHAKE-256 output blocks of 136 bytes.
    @given(st.text("abz_-.é", max_size=8), st.binary(max_size=16),
           st.integers(0, 600), st.integers(0, 600))
    def test_shorter_body_is_a_prefix(self, service, payload, a, b):
        n, m = sorted((a, b))
        assert synthetic_body(service, payload, n) == synthetic_body(service, payload, m)[:n]

    @pytest.mark.parametrize("size", [0, 2048, 2_167_000])
    def test_exact_length(self, size):
        body = synthetic_body("svc", b"p", size)
        assert type(body) is bytes and len(body) == size


class TestMakeSynthetic:
    @pytest.mark.parametrize("size", [-1, True, False, 2.5, "64"])
    def test_bad_output_size_refused(self, size):
        with pytest.raises(ValueError, match="output_size"):
            make_synthetic("svc", output_size=size)

    @pytest.mark.parametrize("delay", [-5, True, 2.5, "50", None])
    def test_bad_delay_ms_refused(self, delay):
        with pytest.raises(ValueError, match="delay_ms"):
            make_synthetic("svc", delay_ms=delay)

    @pytest.mark.parametrize("name", [5, None, "", "a|b"])
    def test_a_name_that_no_rid_can_hold_is_refused(self, name):
        """Such a service was registered, and no request could name it."""
        with pytest.raises(ValueError, match=re.escape(f"service {name!r}: name")):
            make_synthetic(name)


class TestFromConfig:
    @pytest.mark.parametrize("rows", [[{"output_size": 5}], [{"name": "a"}, "b"]])
    def test_row_without_a_name_names_its_index(self, rows):
        index = len(rows) - 1
        with pytest.raises(ValueError, match=rf"services\[{index}\]"):
            HandlerRegistry.from_config(rows)

    def test_delay_ms_taken_as_given(self):
        reg = HandlerRegistry.from_config([{"name": "a", "delay_ms": 7}, {"name": "b"}])
        assert (reg.get("a").delay_ms, reg.get("b").delay_ms) == (7, 0)
        with pytest.raises(ValueError, match="delay_ms"):
            HandlerRegistry.from_config([{"name": "a", "delay_ms": -5}])
