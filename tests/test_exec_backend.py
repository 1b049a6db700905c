"""Execution-backend seam tests (DESIGN.md §13).

The registry (selection by name, availability probes, actionable
errors), the ``SimulatorBackend`` pure-refactor pin (byte-identical
results and resultstore fingerprints vs. direct ``Executor`` use), the
star-schema generator behind realbench, the LIKE-enabled workload
option, the real-runtime path through ``observe_benchmark``, and the
verdict that sets realbench's exit status.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.builder import (
    build_benchmark_for_database,
    load_or_build_dataset,
    prepare_full_database,
)
from repro.bench.workload import WorkloadConfig, WorkloadGenerator
from repro.exceptions import BackendUnavailable, ReproError, ServingError
from repro.exec import (
    BACKEND_ENV_VAR,
    SimulatorBackend,
    StarSchemaConfig,
    available_backends,
    backend_available,
    create_backend,
    default_backend_name,
    generate_star_database,
    register_backend,
    registered_backends,
    resolve_backend,
    schema_config_from_scale,
)
from repro.exec.backend import _REGISTRY
from repro.feedback import observe_benchmark
from repro.sql.executor import Executor
from repro.sql.expressions import CompareOp
from repro.sql.query import UDFPlacement
from repro.storage import GeneratorConfig
from repro.storage.datatypes import DataType
from repro.udf.udf import UDF

SMALL_CONFIG = GeneratorConfig(
    fact_rows=(200, 300), dim_rows=(30, 60), min_tables=3, max_tables=3
)

SMALL_STAR = StarSchemaConfig(
    fact_rows=400,
    date_rows=120,
    item_rows=80,
    customer_rows=90,
    store_rows=15,
    promotion_rows=25,
    seed=3,
)


# ======================================================================
# registry
class TestRegistry:
    def test_builtins_are_registered(self):
        names = registered_backends()
        assert "simulator" in names and "duckdb" in names

    def test_simulator_is_always_available(self):
        assert backend_available("simulator")
        assert "simulator" in available_backends()
        assert set(available_backends()) <= set(registered_backends())

    def test_duckdb_availability_matches_driver(self):
        import importlib.util

        has_driver = importlib.util.find_spec("duckdb") is not None
        assert backend_available("duckdb") == has_driver

    def test_unknown_backend_raises_with_inventory(self, tiny_db):
        with pytest.raises(BackendUnavailable, match="simulator"):
            create_backend("postgres", tiny_db)

    def test_unavailable_backend_reports_probe_reason(self, tiny_db):
        register_backend(
            "broken", SimulatorBackend, probe=lambda: "driver exploded"
        )
        try:
            assert not backend_available("broken")
            assert "broken" not in available_backends()
            with pytest.raises(BackendUnavailable, match="driver exploded"):
                create_backend("broken", tiny_db)
        finally:
            _REGISTRY.pop("broken", None)

    def test_backend_unavailable_degrades_as_serving_error(self):
        # serving surfaces catch ServingError: a missing engine driver
        # degrades the request instead of crashing the process
        assert issubclass(BackendUnavailable, ServingError)
        assert issubclass(BackendUnavailable, ReproError)

    def test_default_backend_name_reads_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "simulator"
        monkeypatch.setenv(BACKEND_ENV_VAR, "duckdb")
        assert default_backend_name() == "duckdb"


class TestResolveBackend:
    def test_none_means_simulator(self, tiny_db):
        backend = resolve_backend(None, tiny_db)
        assert isinstance(backend, SimulatorBackend)
        assert backend.database is tiny_db

    def test_name_goes_through_registry(self, tiny_db):
        backend = resolve_backend("simulator", tiny_db)
        assert isinstance(backend, SimulatorBackend)

    def test_instance_passes_through(self, tiny_db):
        backend = SimulatorBackend(tiny_db)
        assert resolve_backend(backend, tiny_db) is backend

    def test_instance_bound_to_other_database_rejected(self, tiny_db, handmade_db):
        backend = SimulatorBackend(handmade_db)
        with pytest.raises(BackendUnavailable, match="bound to database"):
            resolve_backend(backend, tiny_db)


# ======================================================================
# SimulatorBackend: pure refactor of direct Executor use
class TestSimulatorParity:
    def test_execute_matches_direct_executor(self, tiny_bench):
        db = tiny_bench.database
        executor = Executor(db)
        backend = SimulatorBackend(db)
        checked = 0
        for entry in tiny_bench.entries[:4]:
            for run in entry.runs.values():
                direct = executor.execute(run.plan.copy_tree(), noise_seed=17)
                seamed = backend.execute(run.plan.copy_tree(), noise_seed=17)
                assert seamed.runtime == direct.runtime
                assert seamed.counters.counts == direct.counters.counts
                assert seamed.relation.num_rows == direct.relation.num_rows
                assert sorted(seamed.true_cards.values()) == sorted(
                    direct.true_cards.values()
                )
                checked += 1
        assert checked > 0

    def test_benchmark_is_identical_with_and_without_seam(self):
        import repro.bench.builder as builder_module

        kwargs = dict(n_queries=4, seed=5, generator_config=SMALL_CONFIG)
        legacy = builder_module.build_dataset_benchmark("imdb", **kwargs)
        seamed = builder_module.build_dataset_benchmark(
            "imdb", backend="simulator", **kwargs
        )
        assert legacy.n_queries == seamed.n_queries
        for a, b in zip(legacy.entries, seamed.entries):
            assert set(a.runs) == set(b.runs)
            for placement in a.runs:
                assert a.runs[placement].runtime == b.runs[placement].runtime
                assert a.runs[placement].udf_runtime == b.runs[placement].udf_runtime
                assert (
                    a.runs[placement].query_runtime
                    == b.runs[placement].query_runtime
                )

    def test_simulator_fingerprint_is_unchanged_by_seam(self, tmp_path, monkeypatch):
        """backend=None and backend="simulator" share one cache entry, so
        every benchmark built before the seam existed stays valid."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(n_queries=2, seed=9, generator_config=SMALL_CONFIG)
        first = load_or_build_dataset("imdb", **kwargs)
        cached = load_or_build_dataset("imdb", backend="simulator", **kwargs)
        blobs = sorted(p.name for p in tmp_path.rglob("bench_*"))
        fingerprints = {name.split(".")[0] for name in blobs}
        assert len(fingerprints) == 1, blobs
        for a, b in zip(first.entries, cached.entries):
            for placement in a.runs:
                assert a.runs[placement].runtime == b.runs[placement].runtime

    def test_evaluate_udf_routes_through_interpreter(self, tiny_db):
        udf = UDF(
            name="udf_seam_double",
            source="def udf_seam_double(x):\n    return x * 2.0\n",
            arg_types=(DataType.FLOAT,),
        )
        rows = [(1.5,), (None,), (2.0,)]
        with SimulatorBackend(tiny_db) as backend:
            assert backend.evaluate_udf(udf, rows) == [3.0, None, 4.0]


# ======================================================================
# star-schema generator (realbench's database)
class TestStarSchema:
    @pytest.fixture(scope="class")
    def star_db(self):
        return generate_star_database(SMALL_STAR)

    def test_shape(self, star_db):
        assert set(star_db.table_names) == {
            "store_sales", "date_dim", "item", "customer", "store", "promotion",
        }
        assert len(star_db.table("store_sales")) == SMALL_STAR.fact_rows
        assert len(star_db.table("item")) == SMALL_STAR.item_rows
        fks = star_db.foreign_keys
        assert len(fks) == 5
        assert all(fk.child_table == "store_sales" for fk in fks)

    def test_deterministic_per_seed(self, star_db):
        again = generate_star_database(SMALL_STAR)
        profit = star_db.table("store_sales").column("ss_net_profit").values
        assert np.array_equal(
            profit, again.table("store_sales").column("ss_net_profit").values
        )
        other_seed = generate_star_database(
            StarSchemaConfig(**{**SMALL_STAR.__dict__, "seed": 4})
        )
        assert not np.array_equal(
            profit, other_seed.table("store_sales").column("ss_net_profit").values
        )

    def test_correlated_columns(self, star_db):
        item = star_db.table("item")
        price = item.column("i_current_price").values
        wholesale = item.column("i_wholesale_cost").values
        # wholesale cost is 50-80% of price by construction; the fact
        # measures inherit this through the FK
        assert np.all(wholesale < price)
        promo_valid = star_db.table("store_sales").column("ss_promo_sk").valid
        assert 0 < np.count_nonzero(~promo_valid) < SMALL_STAR.fact_rows

    def test_schema_config_from_scale(self):
        scale = SimpleNamespace(generator=SimpleNamespace(scale=0.5), seed=11)
        config = schema_config_from_scale(scale)
        assert config.fact_rows == 10_000
        assert config.seed == 11
        bare = schema_config_from_scale(SimpleNamespace())
        assert bare.fact_rows == StarSchemaConfig().fact_rows

    def test_workload_and_benchmark_build_on_star_schema(self, star_db):
        database = prepare_full_database(star_db)
        bench = build_benchmark_for_database(
            database.name,
            database,
            n_queries=3,
            seed=2,
            backend="simulator",
        )
        assert bench.n_queries == 3
        for entry in bench.entries:
            for flt in entry.query.filters:
                # surrogate keys are join glue, not filter candidates
                assert not flt.column.column.endswith("_sk")
            for run in entry.runs.values():
                assert run.runtime > 0


# ======================================================================
# LIKE filters (opt-in so historical fingerprints stay put)
class TestLikeWorkload:
    def test_default_workload_has_no_like_filters(self, handmade_db):
        generator = WorkloadGenerator(
            handmade_db,
            seed=11,
            config=WorkloadConfig(filter_prob=1.0, non_udf_fraction=1.0),
        )
        for query in generator.generate(20):
            assert all(f.op is not CompareOp.LIKE for f in query.filters)

    def test_like_prob_generates_prefix_filters(self, handmade_db):
        generator = WorkloadGenerator(
            handmade_db,
            seed=11,
            config=WorkloadConfig(
                filter_prob=1.0, non_udf_fraction=1.0, like_prob=1.0
            ),
        )
        likes = [
            f
            for query in generator.generate(20)
            for f in query.filters
            if f.op is CompareOp.LIKE
        ]
        assert likes, "like_prob=1.0 produced no LIKE filters"
        values = {
            str(v)
            for table in handmade_db.tables.values()
            for col in table.columns
            if col.dtype is DataType.STRING
            for v in col.non_null_values()
        }
        for flt in likes:
            assert any(v.startswith(str(flt.literal)) for v in values)


# ======================================================================
# real-runtime feedback path
class _FakeService:
    """Just enough surface for observe_benchmark: fixed placement,
    recorded call arguments."""

    def __init__(self):
        self.feedback = object()
        self.calls = []

    def suggest_placement(self, query):
        return SimpleNamespace(
            decision_id=f"d{query.query_id}", placement=UDFPlacement.PULL_UP
        )

    def record_runtime(
        self, decision_id, observed, true_selectivity=None, metadata=None
    ):
        record = SimpleNamespace(
            decision_id=decision_id, observed=observed, metadata=metadata
        )
        self.calls.append(record)
        return record


class TestObserveBenchmarkBackends:
    def test_simulator_observations_are_untagged(self, tiny_bench):
        service = _FakeService()
        records = observe_benchmark(service, tiny_bench, max_queries=3)
        assert records and all(r.metadata is None for r in records)

    def test_real_runtimes_override_and_tag(self, tiny_bench):
        from repro.feedback import advisable_entries

        service = _FakeService()
        entries = advisable_entries(tiny_bench)[:3]
        runtimes = {
            (e.query.query_id, UDFPlacement.PULL_UP.value): 0.125 + i
            for i, e in enumerate(entries)
        }
        records = observe_benchmark(
            service, tiny_bench, max_queries=3, backend="duckdb", runtimes=runtimes
        )
        assert [r.observed for r in records] == [0.125, 1.125, 2.125]
        assert all(r.metadata == {"backend": "duckdb"} for r in records)

    def test_missing_measurement_falls_back_to_stored_runtime(self, tiny_bench):
        from repro.feedback import advisable_entries

        service = _FakeService()
        records = observe_benchmark(
            service, tiny_bench, max_queries=1, backend="duckdb", runtimes={}
        )
        entry = advisable_entries(tiny_bench)[0]
        assert records[0].observed == entry.runs[UDFPlacement.PULL_UP].runtime


class TestRecordRuntimeMetadata:
    @pytest.fixture(scope="class")
    def service(self, tiny_bench, tmp_path_factory):
        from repro.eval import prepare_dataset_samples, training_placements
        from repro.feedback import FeedbackLog
        from repro.model import GNNConfig, GracefulModel, TrainConfig
        from repro.serve import AdvisorService, ShardedEngine
        from repro.stats import StatisticsCatalog, make_estimator

        samples = prepare_dataset_samples(
            tiny_bench, "actual", placements=training_placements()
        )
        model = GracefulModel(
            GNNConfig(hidden_dim=8), TrainConfig(epochs=2, seed=0)
        )
        model.fit(samples)
        engine = ShardedEngine(model.model, shards=1)
        log = FeedbackLog(tmp_path_factory.mktemp("fb"))
        service = AdvisorService(
            engine,
            catalog=StatisticsCatalog(tiny_bench.database),
            estimator=make_estimator("actual", tiny_bench.database),
            feedback=log,
        )
        yield service
        engine.close()

    def test_caller_metadata_merges_and_reserved_keys_win(
        self, service, tiny_bench
    ):
        from repro.feedback import advisable_entries

        query = advisable_entries(tiny_bench)[0].query
        decision = service.suggest_placement(query)
        record = service.record_runtime(
            decision.decision_id,
            0.5,
            true_selectivity=0.25,
            metadata={"backend": "duckdb", "decision_id": "spoofed", "lane": 3},
        )
        assert record.metadata["backend"] == "duckdb"
        assert record.metadata["lane"] == 3
        # provenance keys the service owns cannot be overridden
        assert record.metadata["decision_id"] == decision.decision_id
        assert record.metadata["true_selectivity"] == 0.25


# ======================================================================
def _load_realbench_script():
    """Import scripts/realbench.py (scripts/ is not a package)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "realbench.py"
    spec = importlib.util.spec_from_file_location("realbench_script", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["realbench_script"] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


class TestRealbenchVerdict:
    """``scripts/realbench.py`` exits non-zero when DuckDB disagrees; its
    verdict runs here on fabricated reports, no duckdb needed."""

    @staticmethod
    def report(**overrides) -> dict:
        report = {
            "workload": {"n_queries": 200, "n_plans_executed": 400},
            "count_parity": {
                "parity_rate": 1.0,
                "mismatches": [],
                "udf_invocations": 1234.0,
            },
            "feedback": {"n_records": 40, "backend_tagged": 40},
            "fidelity": {"spearman_overall": {"rho": 0.62, "n": 400}},
        }
        for section, fields in overrides.items():
            report[section] = {**report[section], **fields}
        return report

    def test_passing_report_has_no_failures(self):
        rb = _load_realbench_script()
        assert rb.verdict(self.report(), rb.RealbenchConfig(n_queries=200)) == []

    def test_broken_report_names_every_failed_check(self):
        rb = _load_realbench_script()
        broken = self.report(
            workload={"n_plans_executed": 150},
            count_parity={"parity_rate": 0.98, "udf_invocations": 0.0},
            feedback={"backend_tagged": 39},
            fidelity={"spearman_overall": {"rho": None, "n": 150}},
        )
        failures = rb.verdict(broken, rb.RealbenchConfig(n_queries=200))
        assert len(failures) == 5, failures
        for needle in ("150 plans executed", "parity", "UDF", "backend", "Spearman"):
            assert any(needle in failure for failure in failures), needle
        empty = self.report(feedback={"n_records": 0, "backend_tagged": 0})
        assert rb.verdict(empty, rb.RealbenchConfig(n_queries=200)) == [
            "the feedback log received no records"
        ]
