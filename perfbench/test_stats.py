"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from stats import (REFERENCE_PROBE_MS, Tally, beyond,  # noqa: E402
                   end_to_end, self_times, tail_percentile)


class TestSelfTime:
    def test_span_tree(self):
        # root [0, 100) with children [10, 30) and [40, 90); the second
        # child has a grandchild [50, 60).
        spans = [(0, -1, 0, 100), (1, 0, 10, 30), (2, 0, 40, 90),
                 (3, 2, 50, 60)]
        assert self_times(spans) == {0: 30, 1: 20, 2: 40, 3: 10}

    def test_overlapping_children_are_not_double_counted(self):
        spans = [(0, -1, 0, 100), (1, 0, 10, 50), (2, 0, 30, 70)]
        assert self_times(spans)[0] == 40

    def test_child_outside_parent_is_clipped(self):
        spans = [(0, -1, 10, 20), (1, 0, 5, 15)]
        assert self_times(spans)[0] == 5

    def test_self_times_sum_to_root_duration(self):
        spans = [(0, -1, 0, 1000), (1, 0, 100, 400), (2, 1, 150, 300),
                 (3, 0, 500, 900), (4, 3, 500, 900)]
        assert sum(self_times(spans).values()) == 1000


class TestTailRule:
    @pytest.mark.parametrize("n, expected", [
        (2000, 99), (1000, 99), (999, 95), (200, 95), (199, 90),
        (100, 90), (99, None), (0, None)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_beyond_counts_whole_completions(self):
        assert beyond(116, 90) == 11
        assert beyond(1000, 99) == 10
        assert beyond(28, 90) == 2


class TestFailureCounting:
    @staticmethod
    def response(status, body=None):
        return SimpleNamespace(status=status, body=body or {})

    def test_non_200_counts_including_429(self):
        tally = Tally()
        for status in (200, 429, 404, 500, 200):
            tally.response(self.response(status))
        assert (tally.attempted, tally.failed) == (5, 3)
        assert tally.reasons == {"http 429": 1, "http 404": 1,
                                 "http 500": 1}

    def test_body_expectation(self):
        tally = Tally()
        expect = (lambda body: body["status"] == "stored")
        assert tally.response(self.response(200, {"status": "stored"}),
                              expect)
        assert not tally.response(self.response(200, {"status": "rejected"}),
                                  expect)
        assert (tally.attempted, tally.failed) == (2, 1)

    def test_plain_outcomes(self):
        tally = Tally()
        tally.record(True)
        tally.record(False, "shed")
        assert tally.reasons == {"shed": 1}

    def test_one_failed_op_fails_the_checks(self):
        tally = Tally()
        tally.record(True)
        assert tally.problems() == []
        tally.response(self.response(429))
        assert tally.problems() == ["1 of 2 ops failed: {'http 429': 1}"]


class TestEndToEnd:
    @staticmethod
    def process(setup_s, walls, elapsed_s, attempted, failed, sim_ms,
                sim_elapsed_s=10.0, rss=100.0, speed=1.0):
        return {"setup_s": setup_s, "walls_ms": walls,
                "elapsed_s": elapsed_s, "attempted": attempted,
                "probe_ms": speed * REFERENCE_PROBE_MS,
                "failed": failed, "tail_pct": 90,
                "window": {"sim_ms": sim_ms, "sim_elapsed_s": sim_elapsed_s,
                           "peak_rss_mb": rss}}

    def test_combines_processes(self):
        processes = [
            self.process(4.0, [1.0] * 9 + [10.0], 1.0, 10, 0, [5.0] * 10),
            self.process(9.0, [2.0] * 20, 1.0, 20, 1, [5.0] * 10, 12.0, 90),
            self.process(5.0, [3.0] * 30, 2.0, 30, 1, [7.0] * 10, 14.0, 95),
        ]
        metrics = end_to_end(processes)
        # A slow set-up in one process does not move the median.
        assert metrics["setup_s"] == 5.0
        assert metrics["ops_per_s"] == 15.0
        assert metrics["op_p50_ms"] == 2.0
        assert metrics["op_tail_ms"] == pytest.approx(3.0)
        # Failures count against every op attempted, across processes.
        assert metrics["ok_ratio"] == pytest.approx(1 - 2 / 60)
        assert metrics["peak_rss_mb"] == 95.0
        assert metrics["sim_p99_ms"] == pytest.approx(17 / 3)
        assert metrics["sim_elapsed_s"] == pytest.approx(12.0)

    def test_wall_times_scale_to_the_reference_host(self):
        # The same work on a host running at half speed: every wall time
        # doubles, and so does the probe, so the metrics do not move.
        fast = [self.process(2.0, [1.0, 2.0, 3.0] * 10, 1.0, 30, 0,
                             [5.0] * 10) for _ in range(3)]
        slow = [self.process(4.0, [2.0, 4.0, 6.0] * 10, 2.0, 30, 0,
                             [5.0] * 10, speed=2.0) for _ in range(3)]
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms"):
            assert end_to_end(slow)[name] == pytest.approx(
                end_to_end(fast)[name])
        assert end_to_end(fast)["ops_per_s"] == 30.0


class TestTracer:
    def test_install_wraps_binding_sites_and_restore_undoes_it(self):
        import repro.blockchain.identity as identity
        import repro.crypto.rsa as rsa
        import repro.ingestion.pipeline as pipeline
        from tracing import Tracer

        originals = (rsa.generate_keypair, identity.generate_keypair,
                     pipeline.hybrid_decrypt,
                     rsa.RsaPrivateKey.__dict__["private_op"])
        tracer = Tracer()
        tracer.install()
        try:
            assert identity.generate_keypair.__wrapped__ is originals[0]
            assert pipeline.hybrid_decrypt is not originals[2]
            key = rsa.generate_keypair(bits=512, seed=3)
            signature = rsa.rsa_sign(key, b"payload")
            assert rsa.rsa_verify(key.public_key(), b"payload", signature)
        finally:
            tracer.restore()
        assert (rsa.generate_keypair, identity.generate_keypair,
                pipeline.hybrid_decrypt,
                rsa.RsaPrivateKey.__dict__["private_op"]) == originals
        assert tracer.counts[-1]["crypto.keygen_calls"] == 1
        assert tracer.counts[-1]["crypto.rsa_private_ops"] == 1
        assert "blockchain.endorsement_signatures" not in tracer.counts[-1]
        names = {tracer.boundaries[s[2]][2] for s in tracer.spans}
        assert names == {"generate_keypair", "RsaPrivateKey.private_op"}
