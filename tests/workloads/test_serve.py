"""Tests for the interactive serving workload (Zipf, diurnal, SLOs)."""

import json
import subprocess
import sys

import pytest

from repro.sim.rand import RandomSource
from repro.workloads.serve import (
    ServeConfig,
    ZipfSampler,
    diurnal_rate,
    format_serve_result,
    generate_requests,
    run_serve,
)

#: A small-but-meaningful shape shared by the behavioral tests.
SMALL = dict(
    num_nodes=4,
    num_objects=12,
    num_requests=200,
    base_rps=6.0,
    num_tenants=2,
    flash_crowds=1,
)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        zipf = ZipfSampler(20, 1.1)
        total = sum(zipf.probability(rank) for rank in range(20))
        assert total == pytest.approx(1.0)

    def test_popularity_decreases_with_rank(self):
        zipf = ZipfSampler(10, 1.2)
        probs = [zipf.probability(rank) for rank in range(10)]
        assert probs == sorted(probs, reverse=True)

    def test_sample_covers_extremes(self):
        zipf = ZipfSampler(5, 1.0)
        assert zipf.sample(0.0) == 0
        assert zipf.sample(1.0) == 4

    def test_sample_matches_cdf(self):
        zipf = ZipfSampler(4, 1.0)
        # Just past rank 0's mass must land on rank 1.
        assert zipf.sample(zipf.probability(0) + 1e-9) == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(5, 0.0)
        with pytest.raises(ValueError):
            ZipfSampler(3, float("nan"))


class TestDiurnalRate:
    def test_flat_without_amplitude(self):
        assert diurnal_rate(10.0, 0.0, 240.0, 17.0) == pytest.approx(10.0)

    def test_peak_at_quarter_period(self):
        assert diurnal_rate(10.0, 0.5, 240.0, 60.0) == pytest.approx(15.0)

    def test_trough_at_three_quarters(self):
        assert diurnal_rate(10.0, 0.5, 240.0, 180.0) == pytest.approx(5.0)

    def test_rate_never_collapses_to_zero(self):
        # Even amplitude > 1 keeps a 5% floor (arrival gaps stay finite).
        assert diurnal_rate(10.0, 2.0, 240.0, 180.0) == pytest.approx(0.5)


class TestGenerateRequests:
    def test_deterministic_for_same_seed(self):
        config = ServeConfig(**SMALL, seed=7)
        a = generate_requests(config, RandomSource(7).spawn("serve"))
        b = generate_requests(config, RandomSource(7).spawn("serve"))
        assert a == b

    def test_arrivals_sorted_and_fields_in_range(self):
        config = ServeConfig(**SMALL, seed=1)
        requests = generate_requests(config, RandomSource(1).spawn("serve"))
        assert len(requests) == config.num_requests
        times = [request.time for request in requests]
        assert times == sorted(times)
        tenants = {request.tenant for request in requests}
        assert tenants <= {f"tenant{i}" for i in range(config.num_tenants)}
        for request in requests:
            assert request.path.startswith("/serve/obj-")
            assert request.reader.startswith("node")

    def test_zipf_concentrates_traffic(self):
        config = ServeConfig(
            **dict(SMALL, flash_crowds=0), seed=3, zipf_s=1.3
        )
        requests = generate_requests(config, RandomSource(3).spawn("serve"))
        counts = {}
        for request in requests:
            counts[request.path] = counts.get(request.path, 0) + 1
        top = max(counts.values())
        assert top >= len(requests) / config.num_objects * 2


class TestRunServe:
    def test_two_runs_identical(self):
        config = ServeConfig(**SMALL, policy="heat", seed=0)
        first = run_serve(config).to_dict()
        second = run_serve(config).to_dict()
        assert first == second

    def test_heat_beats_none_on_p99(self):
        none = run_serve(ServeConfig(**SMALL, policy="none", seed=0))
        heat = run_serve(ServeConfig(**SMALL, policy="heat", seed=0))
        assert heat.p99 < none.p99
        assert heat.ram_block_reads > 0
        assert none.ram_block_reads == 0
        assert heat.promotions > 0

    def test_hint_policy_pins_hot_objects(self):
        result = run_serve(ServeConfig(**SMALL, policy="hint", seed=0))
        assert result.ram_block_reads > 0
        assert result.migrations_completed > 0
        assert result.promotions == 0  # hints, not the heat policy

    def test_tenant_histograms_cover_all_tenants(self):
        result = run_serve(ServeConfig(**SMALL, policy="none", seed=0))
        assert set(result.tenant_p99) == {
            f"tenant{i}" for i in range(SMALL["num_tenants"])
        }

    def test_batch_jobs_ride_along(self):
        config = ServeConfig(**SMALL, policy="heat", seed=0, batch_jobs=3)
        result = run_serve(config)
        assert result.batch_jobs_completed == 3

    def test_slo_pulls_match_result(self, monkeypatch):
        import repro.workloads.serve as serve_module

        clusters = []

        class RecordingCluster(serve_module.Cluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        monkeypatch.setattr(serve_module, "Cluster", RecordingCluster)
        result = run_serve(ServeConfig(**SMALL, policy="heat", seed=0))
        pulls = clusters[0].metrics.snapshot()["pulls"]
        assert result.p50 > 0
        assert {
            name: pulls[f"serve.slo.{name}"]
            for name in ("p50", "p99", "p999", "mean")
        } == {
            "p50": result.p50,
            "p99": result.p99,
            "p999": result.p999,
            "mean": result.mean,
        }

    def test_format_mentions_percentiles(self):
        result = run_serve(ServeConfig(**SMALL, policy="heat", seed=0))
        text = format_serve_result(result)
        assert "p99" in text and "p999" in text
        assert "heat policy" in text

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServeConfig(policy="oracle")
        with pytest.raises(ValueError):
            ServeConfig(num_requests=0)
        with pytest.raises(ValueError):
            ServeConfig(zipf_s=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(diurnal_amplitude=-0.1)


class TestServeCli:
    def test_double_run_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--nodes",
                    "4",
                    "--objects",
                    "12",
                    "--requests",
                    "120",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ],
                check=True,
                capture_output=True,
            )
        assert (out_a / "serve.json").read_bytes() == (
            out_b / "serve.json"
        ).read_bytes()
        assert (out_a / "serve.txt").read_bytes() == (
            out_b / "serve.txt"
        ).read_bytes()
        payload = json.loads((out_a / "serve.json").read_text())
        assert payload["policy"] == "heat"
        assert payload["requests_served"] == 120
