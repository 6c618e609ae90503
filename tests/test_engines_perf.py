"""Engine selection logic and the engines' performance smoke tests."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import (
    AUTO_ENGINE,
    ENGINE_ENV_VAR,
    ReferenceEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import cycle_graph


class TestEngineRegistry:
    def test_both_builtin_engines_registered(self):
        assert hasattr(np, "bitwise_count"), "NumPy >= 2.0 is a hard dependency"
        assert set(available_engines()) >= {"reference", "vectorized"}

    def test_auto_selects_vectorized_never_silently_falls_back(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(AUTO_ENGINE).name == "vectorized"
        assert resolve_engine(None).name == "vectorized"
        # The selected backend is stamped onto the result, so a fallback
        # could never go unnoticed by a caller that checks it.
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        assert simulate_systolic(schedule, engine="auto").engine_name == "vectorized"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine(AUTO_ENGINE).name == "reference"
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        assert simulate_systolic(schedule, engine="auto").engine_name == "reference"

    def test_explicit_engine_wins_over_env_var(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine("vectorized").name == "vectorized"

    def test_engine_instance_passes_through(self):
        engine = ReferenceEngine()
        assert resolve_engine(engine) is engine

    def test_unknown_engine_name_raises(self):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            get_engine("warp-drive")
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            resolve_engine("warp-drive")

    def test_unknown_env_override_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp-drive")
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            resolve_engine(AUTO_ENGINE)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_engine(ReferenceEngine())

    def test_auto_name_reserved(self):
        class Impostor:
            name = AUTO_ENGINE

        with pytest.raises(SimulationError, match="reserved"):
            register_engine(Impostor())


@pytest.mark.slow
class TestVectorizedPerformance:
    def test_large_cycle_gossip_within_budget(self, monkeypatch):
        """Systolic gossip on C(4096) must finish comfortably within budget.

        The vectorized engine completes this in well under two seconds on
        any recent machine (the reference engine needs several); the
        generous wall-clock budget only guards against a silent collapse
        back to per-arc Python looping.
        """
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        n = 4096
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        engine = resolve_engine("auto")
        assert engine.name == "vectorized", "auto must not fall back silently"
        start = time.perf_counter()
        rounds = gossip_time(schedule, engine=engine)
        elapsed = time.perf_counter() - start
        assert rounds >= n // 2  # can't beat the diameter
        assert elapsed < 30.0, f"vectorized gossip on C({n}) took {elapsed:.1f}s"


@pytest.mark.slow
class TestTiledKernelAtScale:
    """The L2-tiled gather path agrees with the hybrid engine at scale.

    The workload is a random (irregular) matching schedule on C(8192):
    irregular rounds defeat the strided-segment fast path, so the
    vectorized kernel runs the tiled gather/scatter path (the knowledge
    matrix alone is 8 MiB, far beyond one tile), while the hybrid engine
    computes the same run through its active-word windows.
    """

    def test_tiled_kernel_matches_hybrid_at_8192(self):
        n = 8192
        schedule = random_systolic_schedule(cycle_graph(n), 4, Mode.HALF_DUPLEX, seed=3)
        program = RoundProgram.from_schedule(schedule, 256)
        tiled = get_engine("vectorized").run(program, track_history=False)
        hybrid = get_engine("hybrid").run(program, track_history=False)
        assert tiled.knowledge == hybrid.knowledge
        assert tiled.rounds_executed == hybrid.rounds_executed


@pytest.mark.slow
class TestFrontierPerformance:
    def test_frontier_completes_large_cycle_within_budget(self):
        """Frontier gossip on C(4096) completes fast and agrees at scale.

        The ≥2× frontier-vs-vectorized comparison lives in
        ``benchmarks/bench_engine_comparison.py``; this smoke test only
        guards against the sparse path collapsing into something slow, and
        doubles as a large-instance differential check on the gossip time.
        """
        n = 4096
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        start = time.perf_counter()
        rounds = gossip_time(schedule, engine="frontier")
        elapsed = time.perf_counter() - start
        assert rounds == gossip_time(schedule, engine="vectorized")
        assert elapsed < 15.0, f"frontier gossip on C({n}) took {elapsed:.1f}s"
