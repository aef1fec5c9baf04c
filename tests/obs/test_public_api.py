"""The promoted public surface: repro.__all__ and repro.obs exports."""

import importlib

import repro
import repro.obs


class TestPackageAll:
    def test_all_names_import_cleanly(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_observability_surface_is_exported(self):
        # The names the docs quickstart uses must live in __all__.
        for name in (
            "ObservabilityConfig",
            "MetricsRegistry",
            "TraceReader",
            "build_paper_testbed",
            "JobSpec",
        ):
            assert name in repro.__all__, name

    def test_obs_subpackage_all_imports_cleanly(self):
        module = importlib.import_module("repro.obs")
        for name in module.__all__:
            assert getattr(module, name, None) is not None, name

    def test_exports_are_the_real_classes(self):
        assert repro.ObservabilityConfig is repro.obs.ObservabilityConfig
        assert repro.MetricsRegistry is repro.obs.MetricsRegistry
        assert repro.TraceReader is repro.obs.TraceReader

    def test_cluster_config_carries_observability(self):
        config = repro.ClusterConfig()
        assert isinstance(config.observability, repro.ObservabilityConfig)
        assert config.observability.trace_path is None
