"""Columnar workload pipeline vs. the retained per-request reference.

The columnar :func:`build_workload` must encode the byte-identical request
stream the seed's per-request loop produced — same function sequence, same
arrival instants, same model assignment — for every working set and seed,
while building no request objects until asked.
"""

import numpy as np
import pytest
from oracles import build_workload_reference

from repro.traces import (
    AzureTraceConfig,
    SyntheticAzureTrace,
    WorkloadSpec,
    build_workload,
)


@pytest.fixture(scope="module")
def trace():
    return SyntheticAzureTrace(
        AzureTraceConfig(num_functions=500, mean_rate_per_minute=3000, seed=3)
    )


class TestStreamParity:
    @pytest.mark.parametrize("working_set", [15, 25, 35])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_columns_identical_to_reference(self, trace, working_set, seed):
        spec = WorkloadSpec(working_set=working_set, minutes=3, seed=seed)
        columnar = build_workload(spec, trace=trace)
        reference = build_workload_reference(spec, trace=trace)
        np.testing.assert_array_equal(columnar.arrival_times, reference.arrival_times)
        np.testing.assert_array_equal(columnar.function_index, reference.function_index)
        np.testing.assert_array_equal(columnar.counts, reference.counts)
        assert columnar.function_ids == reference.function_ids

    @pytest.mark.parametrize("working_set", [15, 25, 35])
    def test_materialized_requests_identical(self, trace, working_set):
        spec = WorkloadSpec(working_set=working_set, minutes=2, seed=11)
        columnar = build_workload(spec, trace=trace).requests
        reference = build_workload_reference(spec, trace=trace).requests
        assert len(columnar) == len(reference)
        # ids come from a process-global counter: compare as per-build
        # offsets so the streams prove identical construction order
        base_c, base_r = columnar[0].request_id, reference[0].request_id
        for c, r in zip(columnar, reference):
            assert c.function_name == r.function_name
            assert c.arrival_time == r.arrival_time
            assert c.model.instance_id == r.model.instance_id
            assert c.batch_size == r.batch_size
            assert c.tenant == r.tenant
            assert c.sla_s == r.sla_s
            assert c.request_id - base_c == r.request_id - base_r


class TestLazyMaterialization:
    def test_build_makes_no_request_objects(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=2), trace=trace)
        assert not w.materialized
        assert len(w) == 2 * 325
        assert len(w.arrival_times) == len(w.function_index) == len(w)
        assert not w.materialized  # column access does not materialize

    def test_describe_is_column_only(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=2), trace=trace)
        stats = w.describe()
        assert stats["total_requests"] == len(w)
        assert not w.materialized

    def test_requests_cached_single_materialization(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        first = w.requests
        assert w.materialized
        assert w.requests is first  # same list object: built exactly once
        assert [r.arrival_time for r in first] == w.arrival_times.tolist()

    def test_iteration_sees_the_cached_objects(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        via_iter = list(w)
        assert via_iter == w.requests
        assert via_iter[0] is w.requests[0]

    def test_reference_builder_is_prematerialized(self, trace):
        w = build_workload_reference(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        assert w.materialized
