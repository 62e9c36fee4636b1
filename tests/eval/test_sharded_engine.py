"""End-to-end (cell x shard) fan-out vs. monolithic experiment runs.

Runs real experiment drivers through the engine twice - sharding off,
and sharding on at awkward shard sizes / jobs levels - against
separate temp trace caches (and once with no cache, where the
fan-out's reductions fold in one cell per workload), and asserts the
*user-visible contract*:
rendered tables, per-cell metric snapshots, and exported metric
documents are byte-identical.  Also covers the engine's sharded trace
handles (manifest-derived cpu.* metrics) and the streaming CLI cells.
"""

import pytest

from repro import metrics
from repro.api import session as api_session
from repro.eval import engine, experiments
from repro.metrics import export
from repro.trace import cache as trace_cache
from repro.trace import shards
from repro.workloads import suite

#: Two real workloads kept cheap (~33k instructions each at this scale).
NAMES = ("db_vortex", "ccomp")
SCALE = 0.02

DRIVERS = (experiments.table1, experiments.figure2,
           experiments.table2, experiments.figure4)


@pytest.fixture(autouse=True)
def _clean_state():
    # Process-wide fault counters (shard produced/loaded/corrupt
    # tallies included) would otherwise carry over from earlier tests.
    engine.reset_fault_stats()
    yield
    trace_cache.configure(None)
    shards.set_shard_rows(None)
    engine.take_metrics()
    metrics.disable()
    suite.clear_caches()


def _run_drivers(cache_dir, shard_rows, jobs):
    """Tables + collected per-cell metrics for every driver
    (``cache_dir=None`` runs without a trace cache)."""
    trace_cache.configure(cache_dir)
    shards.set_shard_rows(shard_rows)
    engine.reset_stage_times()
    out = {}
    metrics.enable()
    try:
        for driver in DRIVERS:
            result = driver(scale=SCALE, names=NAMES, jobs=jobs)
            out[driver.__name__] = (result.headers, result.rows,
                                    result.metrics)
    finally:
        metrics.disable()
        trace_cache.configure(None)
        shards.set_shard_rows(None)
        suite.clear_caches()
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _run_drivers(tmp_path_factory.mktemp("mono"), None, 1)


@pytest.fixture(scope="module")
def uncached_baseline():
    # Cache-less cells simulate in-cell and so publish the columnar
    # build counters a cache hit does not; compare like with like.
    return _run_drivers(None, None, 1)


class TestShardedExperimentIdentity:
    # Without a trace cache, figure2/table2 cannot fan out over shards;
    # each workload folds its memory-backed shards in one cell instead.
    @pytest.mark.parametrize("shard_rows,jobs,cached", (
        pytest.param(1000, 1, True, id="1000-1"),
        pytest.param(1000, 2, True, id="1000-2"),
        pytest.param(7777, 2, True, id="7777-2"),
        pytest.param(1000, 1, False, id="1000-1-nocache")))
    def test_tables_and_metrics_identical(self, request,
                                          tmp_path_factory,
                                          shard_rows, jobs, cached):
        if cached:
            baseline = request.getfixturevalue("baseline")
            cache_dir = tmp_path_factory.mktemp("shard")
        else:
            baseline = request.getfixturevalue("uncached_baseline")
            cache_dir = None
        got = _run_drivers(cache_dir, shard_rows, jobs)
        for driver in baseline:
            base_headers, base_rows, base_cells = baseline[driver]
            headers, rows, cells = got[driver]
            assert headers == base_headers, driver
            assert rows == base_rows, driver
            assert list(cells) == list(base_cells), driver
            for cell in base_cells:
                assert cells[cell] == base_cells[cell], \
                    f"{driver}/{cell}"

    def test_export_documents_identical(self, baseline,
                                        tmp_path_factory):
        got = _run_drivers(tmp_path_factory.mktemp("shardx"), 2048, 2)
        for driver in baseline:
            base_doc = export.experiment_document(
                driver, SCALE, baseline[driver][2])
            doc = export.experiment_document(
                driver, SCALE, got[driver][2])
            assert doc["cells"] == base_doc["cells"], driver
            assert doc["totals"] == base_doc["totals"], driver


class TestShardedTraceHandle:
    def test_handle_is_sharded_and_metrics_match_manifest(
            self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(500)
        registry = metrics.enable()
        try:
            handle = engine.trace_handle(NAMES[0], SCALE)
            assert isinstance(handle, shards.ShardedTrace)
            assert handle.num_shards > 1
            snapshot = registry.snapshot()
        finally:
            metrics.disable()
        assert snapshot["cpu.instructions"]["value"] == len(handle)
        assert snapshot["cpu.loads"]["value"] == handle.load_count
        assert snapshot["cpu.region.stack"]["value"] \
            == handle.counts()["region_stack"]

    def test_handle_falls_back_to_trace_when_sharding_off(
            self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(0)
        handle = engine.trace_handle(NAMES[0], SCALE)
        assert not isinstance(handle, shards.ShardedTrace)

    def test_trace_for_materializes_under_sharding(self, tmp_path):
        # Timing/LVC cells need real in-RAM traces even when sharding
        # is on; trace_for must transparently materialise.
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(500)
        trace = engine.trace_for(NAMES[0], SCALE)
        assert not isinstance(trace, shards.ShardedTrace)
        assert trace.has_columns and len(trace) > 0


class TestStreamingCliCells:
    @pytest.mark.parametrize("shard_rows", (400, 5000))
    def test_regions_and_predict_lines_identical(self, tmp_path,
                                                 shard_rows):
        name = NAMES[0]
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(0)
        plain_regions = api_session.regions_cell(name, SCALE)
        plain_predict = api_session.predict_cell(
            name, SCALE, api_session.DEFAULT_SCHEME)
        shards.set_shard_rows(shard_rows)
        assert api_session.regions_cell(name, SCALE) == plain_regions
        assert api_session.predict_cell(
            name, SCALE, api_session.DEFAULT_SCHEME) == plain_predict


class TestFanOutResilience:
    def test_shard_counters_reported_in_resilience(self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(1000)
        experiments.figure2(scale=SCALE, names=(NAMES[0],), jobs=1)
        snap = engine.resilience_snapshot()
        assert snap["trace.shards.produced"] > 0
        assert snap["trace.shards.loaded"] > 0
        assert snap["trace.shards.corrupt"] == 0
        assert "trace.cache.evictions" in snap
