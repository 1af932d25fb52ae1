"""P7: health control plane — burn-rate paging, heavy hitters, event stream.

A Zipf-tenant API workload runs through the real gateway with a
:class:`HealthPlane` attached; mid-run a FaultPlan link fault makes the
backing knowledge base drop half its calls (503s), and the SLO
evaluator ticks once per simulated minute.  Each claim is measured:

* **paging latency** — the fast (5m/1h, 14.4x) burn-rate rule must page
  within its own short window of the fault's start, and must raise zero
  pages during the calm prefix (no false positives);
* **alert hygiene** — one page per episode (rising-edge dedupe) and the
  page resolves once the short window drains after recovery;
* **heavy hitters** — the space-saving top-k over tenants must match
  ground-truth request counts exactly (sketch capacity exceeds the
  tenant population, so every estimate carries zero error);
* **event stream** — the bounded dashboard subscriber's drop counter is
  exact and deterministic; event ids are seeded, so the whole stream is
  reproducible;
* **zero simulated overhead** — attaching the plane must not move the
  simulated clock by a single tick.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p7_healthplane.py --quick
"""

import argparse
import json

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.core.api import ApiGateway, ApiRequest, RouteSpec
from repro.core.errors import ServiceUnavailableError
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro.workloads.traces import zipf_trace

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

SEED = 29
N_TENANTS = 40
ZIPF_SKEW = 1.1
SKETCH_CAPACITY = 64            # > N_TENANTS: the sketch stays exact
PERIOD_S = 2.0                  # open-loop request interarrival
HANDLER_COST_S = 0.005          # simulated KB lookup per successful call
EVAL_EVERY_S = 60.0             # SLO evaluation cadence
DROP_RATE = 0.5                 # failed KB calls inside the fault window
DASHBOARD_MAXLEN = 128
FAST_WINDOW_S = 300.0           # page rule's short window = latency bound

# Phase lengths in simulated seconds: calm prefix, fault, recovery.
PHASES = {"full": (1800.0, 600.0, 600.0), "quick": (900.0, 300.0, 300.0)}


def _build_world(clock, monitoring):
    """One gateway, N_TENANTS tenants (one reader each), one KB route."""
    rbac = RbacEngine()
    federation = FederatedIdentityService(rbac, clock)
    idp = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock)
    federation.approve_idp("idp", b"idp-secret-key-01")
    subjects = []
    orgs = []
    for i in range(N_TENANTS):
        tenant = rbac.create_tenant(f"tenant-{i:02d}")
        org = rbac.create_organization(tenant.tenant_id, "org")
        env = rbac.create_environment(org.org_id, "prod")
        user = rbac.register_user(tenant.tenant_id, f"user-{i:02d}")
        scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
        rbac.define_role(f"reader-{i:02d}",
                         [Permission(Action.READ, "records", scope)])
        rbac.bind_role(user.user_id, org.org_id, env.env_id,
                       f"reader-{i:02d}")
        subject = f"user-{i:02d}@tenant-{i:02d}"
        federation.link_identity("idp", subject, user.user_id)
        subjects.append(subject)
        orgs.append((org, env, tenant.tenant_id))
    gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                         clock=clock, rate_limit=1_000_000)
    plan = FaultPlan(seed=SEED, clock=clock)

    def handler(context, **kw):
        if plan.link_dropped("gateway", "kb"):
            raise ServiceUnavailableError("kb link dropped")
        clock.advance(HANDLER_COST_S)
        return {"ok": True}

    gateway.register_route(RouteSpec(
        path="/records", handler=handler, action=Action.READ,
        resource_type="records", scope_kind=ScopeKind.ORGANIZATION))
    return gateway, idp, subjects, orgs, plan


def _run_scenario(mode, with_plane=True):
    """Drive the phased Zipf workload; returns the result dict."""
    calm_s, fault_s, recovery_s = PHASES[mode]
    clock = SimClock()
    monitoring = MonitoringService(clock)
    Tracer(monitoring)      # latency exemplars carry trace ids
    plane = None
    dashboard = pager = None
    if with_plane:
        plane = HealthPlane(monitoring, seed=SEED,
                            accounting_capacity=SKETCH_CAPACITY)
        plane.register_api_slo()
        dashboard = plane.events.subscribe("dashboard",
                                           maxlen=DASHBOARD_MAXLEN,
                                           kinds=["api.request"])
        pager = plane.events.subscribe("pager", kinds=["slo"])
    gateway, idp, subjects, orgs, plan = _build_world(clock, monitoring)

    total_s = calm_s + fault_s + recovery_s
    fault_start = calm_s
    plan.drop_link("gateway", "kb", DROP_RATE,
                   start_s=fault_start, end_s=fault_start + fault_s)

    n_requests = int(total_s / PERIOD_S)
    tenants = zipf_trace(N_TENANTS, n_requests, skew=ZIPF_SKEW, seed=SEED)
    truth_requests = {}
    truth_faults = {}
    pages = []
    next_eval = EVAL_EVERY_S
    for index in tenants:
        org, env, tenant_id = orgs[index]
        response = gateway.dispatch(ApiRequest(
            path="/records", token=idp.issue_token(subjects[index]),
            scope_entity_id=org.org_id, org_id=org.org_id,
            env_id=env.env_id))
        truth_requests[tenant_id] = truth_requests.get(tenant_id, 0) + 1
        if response.status >= 500:
            truth_faults[tenant_id] = truth_faults.get(tenant_id, 0) + 1
        clock.advance(PERIOD_S)
        if plane is not None and clock.now >= next_eval:
            pages.extend(a for a in plane.evaluate() if a.severity == "page")
            plane.log_tail()
            next_eval += EVAL_EVERY_S
    if plane is None:
        return {"elapsed_s": round(clock.now, 9), "requests": n_requests}
    final_alerts = plane.evaluate()
    pages.extend(a for a in final_alerts if a.severity == "page")

    # Ground truth top-k, same deterministic order as the sketch.
    def exact_top(counts, k=8):
        ranked = sorted(counts, key=lambda key: (-counts[key], key))
        return [{"key": key, "count": float(counts[key])}
                for key in ranked[:k]]

    sketch_top = [h.to_dict()
                  for h in plane.accounting.top("tenant", "requests", k=8)]
    truth_top = exact_top(truth_requests)
    report = plane.snapshot()
    return {
        "mode": mode,
        "requests": n_requests,
        "tenants": N_TENANTS,
        "phases_s": {"calm": calm_s, "fault": fault_s,
                     "recovery": recovery_s},
        "elapsed_s": round(clock.now, 9),
        "fault_start_s": fault_start,
        "pages": [a.to_dict() for a in pages],
        "page_latency_s": (round(pages[0].fired_at_s - fault_start, 9)
                           if pages else None),
        "false_positive_pages": sum(
            1 for a in pages if a.fired_at_s < fault_start),
        "active_pages_at_end": sum(
            1 for a in plane.slos.active_alerts() if a.severity == "page"),
        "alerts_total": len(plane.slos.alerts),
        "top_tenants_sketch": sketch_top,
        "top_tenants_truth": truth_top,
        "top_match": (
            [(h["key"], h["estimate"]) for h in sketch_top]
            == [(t["key"], t["count"]) for t in truth_top]),
        "sketch_exact": all(h["error"] == 0.0 for h in sketch_top),
        "top_faulted": [h.to_dict()
                        for h in plane.accounting.top("tenant", "faults",
                                                      k=3)],
        "truth_faulted": exact_top(truth_faults, k=3),
        "dashboard": {"delivered": dashboard.delivered,
                      "dropped": dashboard.dropped,
                      "backlog": dashboard.backlog},
        "pager_kinds": sorted({e.kind for e in pager.poll()}),
        "events": report.events,
        "exemplars": report.exemplars,
        "series": report.series,
    }


@pytest.mark.benchmark(group="p7-healthplane")
def test_p7_page_fires_within_fast_window(benchmark):
    """Acceptance: the injected fault pages within the 5m fast window,
    with zero false-positive pages in the calm prefix."""
    result = _run_scenario("quick")
    benchmark.pedantic(lambda: _run_scenario("quick"), rounds=1,
                       iterations=1)
    benchmark.extra_info["page_latency_s"] = result["page_latency_s"]
    show("P7: burn-rate paging under an injected 50% KB fault",
         [f"fault at t={result['fault_start_s']:.0f}s, page after "
          f"{result['page_latency_s']}s (bound {FAST_WINDOW_S:.0f}s)",
          f"false positives in calm prefix: "
          f"{result['false_positive_pages']}",
          f"pages {len(result['pages'])}, total alerts "
          f"{result['alerts_total']}"])
    assert result["pages"], "the injected fault must page"
    assert result["page_latency_s"] <= FAST_WINDOW_S
    assert result["false_positive_pages"] == 0
    assert len(result["pages"]) == 1          # one episode, one page
    assert result["active_pages_at_end"] == 0  # resolved after recovery
    assert result["pager_kinds"] == ["slo.alert", "slo.alert_resolved"]


@pytest.mark.benchmark(group="p7-healthplane")
def test_p7_heavy_hitters_match_ground_truth(benchmark):
    """Acceptance: space-saving top-k equals exact per-tenant counts."""
    result = _run_scenario("quick")
    benchmark.pedantic(lambda: _run_scenario("quick"), rounds=1,
                       iterations=1)
    top = result["top_tenants_sketch"]
    show("P7: heavy-hitter accounting (Zipf tenants, capacity "
         f"{SKETCH_CAPACITY})",
         [f"top tenant {top[0]['key']}: {top[0]['estimate']:.0f} requests "
          f"(error {top[0]['error']:.0f})",
          f"top-8 matches ground truth: {result['top_match']}",
          f"faulted tenants tracked: {len(result['top_faulted'])}"])
    assert result["top_match"]
    assert result["sketch_exact"]
    assert [h["key"] for h in result["top_faulted"]] == [
        t["key"] for t in result["truth_faulted"]]


@pytest.mark.benchmark(group="p7-healthplane")
def test_p7_event_stream_bounded_and_exemplars_linked(benchmark):
    """Acceptance: the bounded dashboard drop counter is exact, and the
    latency exemplar points at a real trace."""
    result = _run_scenario("quick")
    benchmark.pedantic(lambda: _run_scenario("quick"), rounds=1,
                       iterations=1)
    dash = result["dashboard"]
    show("P7: event stream + exemplars",
         [f"dashboard: {dash['delivered']} delivered, {dash['dropped']} "
          f"dropped (maxlen {DASHBOARD_MAXLEN})",
          f"stream total: {result['events']['published']} events from "
          f"{sorted(result['events']['by_source'])}",
          f"api.latency exemplar -> {result['exemplars']['api.latency']}"])
    assert dash["delivered"] == result["requests"]
    assert dash["dropped"] == result["requests"] - DASHBOARD_MAXLEN
    assert dash["backlog"] == DASHBOARD_MAXLEN
    # Every instrumented source that ran shows up on the stream.
    assert {"gateway", "healthplane", "log"} <= set(
        result["events"]["by_source"])
    assert result["exemplars"]["api.latency"]["trace_id"].startswith("t-")


@pytest.mark.benchmark(group="p7-healthplane")
def test_p7_plane_adds_zero_simulated_time(benchmark):
    """Acceptance: attaching the health plane never moves the sim clock."""
    with_plane = _run_scenario("quick", with_plane=True)
    without = _run_scenario("quick", with_plane=False)
    benchmark.pedantic(lambda: _run_scenario("quick", with_plane=False),
                       rounds=1, iterations=1)
    show("P7: observability tax on simulated time",
         [f"with plane    {with_plane['elapsed_s']:.3f}s simulated",
          f"without plane {without['elapsed_s']:.3f}s simulated"])
    assert with_plane["elapsed_s"] == without["elapsed_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Health-plane benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload")
    parser.add_argument("--output", default="BENCH_healthplane.json")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results = {"quick": args.quick, **_run_scenario(mode)}
    # Determinism: the whole scenario twice, byte-identical.
    second = {"quick": args.quick, **_run_scenario(mode)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    print(f"fault at t={results['fault_start_s']:.0f}s; page after "
          f"{results['page_latency_s']}s "
          f"(bound {FAST_WINDOW_S:.0f}s)")
    print(f"false-positive pages in calm prefix: "
          f"{results['false_positive_pages']}")
    top = results["top_tenants_sketch"][0]
    print(f"top tenant {top['key']}: {top['estimate']:.0f} requests; "
          f"top-8 matches ground truth: {results['top_match']}")
    dash = results["dashboard"]
    print(f"dashboard subscriber: {dash['delivered']} delivered, "
          f"{dash['dropped']} dropped (bounded at {DASHBOARD_MAXLEN})")
    print(f"deterministic: {results['deterministic']}")

    assert results["pages"] and results["page_latency_s"] <= FAST_WINDOW_S
    assert results["false_positive_pages"] == 0
    assert results["active_pages_at_end"] == 0
    assert results["top_match"] and results["sketch_exact"]
    assert results["deterministic"]

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
