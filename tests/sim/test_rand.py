"""Tests for the seeded randomness helpers."""

import pytest

from repro.sim import RandomSource, derive_seed


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.py.random() for _ in range(5)] == [
            b.py.random() for _ in range(5)
        ]

    def test_different_seed_different_stream(self):
        assert RandomSource(1).py.random() != RandomSource(2).py.random()

    def test_spawn_is_stable_by_name(self):
        parent = RandomSource(7)
        assert parent.spawn("child").seed == RandomSource(7).spawn("child").seed

    def test_spawn_names_are_independent(self):
        parent = RandomSource(7)
        assert parent.spawn("a").seed != parent.spawn("b").seed

    def test_spawn_does_not_consume_parent_state(self):
        a = RandomSource(7)
        b = RandomSource(7)
        a.spawn("x")
        a.spawn("y")
        assert a.py.random() == b.py.random()

    def test_numpy_generator_seeded(self):
        a = RandomSource(3)
        b = RandomSource(3)
        assert a.np.random() == b.np.random()

    def test_convenience_draws(self):
        source = RandomSource(0)
        assert 0 <= source.uniform(0, 1) <= 1
        assert source.expovariate(1.0) >= 0
        assert source.lognormal(0, 1) > 0
        assert source.choice([1, 2, 3]) in (1, 2, 3)
        assert set(source.sample([1, 2, 3], 2)) <= {1, 2, 3}
        assert 1 <= source.randint(1, 5) <= 5
        items = [1, 2, 3, 4]
        source.shuffle(items)
        assert sorted(items) == [1, 2, 3, 4]

    def test_derive_seed_matches_spawn(self):
        assert derive_seed(7, "child") == RandomSource(7).spawn("child").seed


class TestPresets:
    def test_hdd_slower_than_ssd_slower_than_ram(self):
        from repro.sim import Environment
        from repro.storage import HDD_TIER, MEM_TIER, SSD_TIER

        env = Environment()
        hdd = HDD_TIER.make_device(env, "hdd")
        ssd = SSD_TIER.make_device(env, "ssd")
        ram = MEM_TIER.make_device(env, "ram")
        assert hdd.bandwidth < ssd.bandwidth < ram.bandwidth

    def test_only_hdd_pays_meaningful_seek_latency(self):
        from repro.sim import Environment
        from repro.storage import HDD_TIER, MEM_TIER, SSD_TIER

        env = Environment()
        assert (
            HDD_TIER.make_device(env, "hdd").latency
            > SSD_TIER.make_device(env, "ssd").latency
        )
        assert MEM_TIER.make_device(env, "ram").latency == 0.0

    def test_ram_streams_run_at_full_rate_under_concurrency(self):
        from repro.sim import Environment
        from repro.storage import MB, MEM_TIER
        from repro.storage.presets import RAM_STREAM_RATE

        env = Environment()
        ram = MEM_TIER.make_device(env, "ram")
        ends = []

        def reader(env):
            yield ram.transfer(64 * MB)
            ends.append(env.now)

        for _ in range(16):
            env.process(reader(env))
        env.run()
        expected = 64 * MB / RAM_STREAM_RATE
        assert all(end == pytest.approx(expected, rel=1e-6) for end in ends)
