"""Prometheus text exposition: format shape and counter fidelity."""

import re

from repro.metrics import prometheus_exposition
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload


def _replay(cfg):
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=1, seed=0),
        trace=SyntheticAzureTrace(),
    )
    system = FaaSCluster(cfg)
    system.submit_workload(workload)
    system.run()
    return system


_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+einf]+$'
)


def test_every_line_is_help_type_or_sample():
    text = prometheus_exposition(_replay(SystemConfig()))
    for line in text.strip().splitlines():
        assert (
            line.startswith("# HELP ")
            or line.startswith("# TYPE ")
            or _SAMPLE.match(line)
        ), line


def test_counters_match_the_run():
    system = _replay(SystemConfig())
    text = prometheus_exposition(system)
    assert (
        f"repro_requests_completed_total {system.metrics.completed_count}"
        in text
    )
    assert (
        f'repro_scheduler_passes_total{{outcome="executed"}} '
        f"{system.scheduler.passes_executed}" in text
    )
    assert f"repro_kv_revision {system.datastore.kv.revision}" in text


def test_tracer_rings_exposed_when_tracing():
    system = _replay(SystemConfig(tracer="flight"))
    text = prometheus_exposition(system)
    totals = system.tracer.totals
    assert f'repro_trace_records_total{{ring="requests"}} {totals["requests"]}' in text
    assert f'repro_trace_records_total{{ring="passes"}} {totals["passes"]}' in text
    assert 'repro_trace_records_dropped_total{ring="requests"} 0' in text


def test_no_tracer_metrics_without_tracer():
    text = prometheus_exposition(_replay(SystemConfig()))
    assert "repro_trace_records_total" not in text


def test_streaming_mode_renders_latency_histogram():
    system = _replay(SystemConfig(metrics_exact_cap=0))
    text = prometheus_exposition(system)
    assert "# TYPE repro_request_latency_seconds histogram" in text
    assert 'repro_request_latency_seconds_bucket{le="+Inf"}' in text
    count = re.search(r"repro_request_latency_seconds_count (\d+)", text)
    assert count and int(count.group(1)) == system.metrics.completed_count


def test_exposition_identical_at_every_exact_cap():
    """The latency histogram renders for every run, and inside the window
    it is folded exactly as a capped collector folds it."""
    texts = [
        prometheus_exposition(_replay(SystemConfig(metrics_exact_cap=cap)))
        for cap in (None, 0, 20_000)
    ]
    assert 'repro_request_latency_seconds_bucket{le="+Inf"}' in texts[0]
    assert texts[0] == texts[1] == texts[2]
