"""The closed-loop cadence and which releases count as fresh."""

import layers
import workloads


def test_closed_loop_sends_its_hits_then_one_fresh_release():
    for name in ("retail-release", "tierlarge-mmap"):
        spec = workloads.workload(name)
        plan = workloads.closed_plan(spec, trace=False)
        assert len(plan) == spec.connections
        for tenant, cycle in zip(spec.tenants, plan):
            bodies = [request[4] for request in cycle]
            assert [(body["k"], body["epsilon"]) for body in bodies] == (
                [(spec.dominated_k, spec.dominated_epsilon)]
                * spec.hits_per_release + [(spec.k, spec.epsilon)])
            assert {body["tenant"] for body in bodies} == {tenant}


def test_dominated_misses_are_not_fresh_releases():
    def record(k, epsilon, hit=False, phase="window", status=200):
        return {"phase": phase, "op": "release", "status": status,
                "hit": hit, "k": k, "epsilon": epsilon}

    fresh = record(50, 1.0)
    records = [fresh, record(20, 0.5), record(20, 0.5, hit=True),
               record(50, 1.0, phase="setup"), {"phase": "window",
               "op": "ingest", "status": 200}]
    assert layers.fresh_releases(records, 50, 1.0) == [fresh]
