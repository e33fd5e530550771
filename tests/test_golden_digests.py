"""Golden digests: fully observed runs pinned to recorded bytes.

One observed run yields six artefacts — the run summary, the scaling-event
log, the sampled timeline, the decision-trace JSONL, the OpenMetrics
exposition, and the telemetry snapshot.  Each is reduced to a canonical
text form and hashed; the digests below were recorded from the engine as
it stood before the quiet-node step and the frame-based stats history
moved onto ``Node``/``NodeManager``.  Every registered policy is pinned at
the paper's 24-node scale, plus a three-tier application run (graph
dispatch, join, and back-pressure) and a disk-bound run, recorded before
CPU, disk and NIC grants shared one processor-sharing kernel (the policy
runs never touch the disk).  A digest mismatch means the engine's
observable behaviour changed: find the byte that moved, do not re-record.

The digests were recorded on CPython 3.11, where ``sum()`` over floats is
a plain left fold; 3.12 made it compensated, so a 3.12 run may differ.

Under ``pytest --simsan`` each of these builds also runs sanitized.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig, SimulationConfig
from repro.core.registry import registered_policies
from repro.experiments.runner import Simulation
from repro.instrument import Observe
from repro.metrics.sla import Sla
from repro.codec import canonical_json
from repro.metrics.summary import RunSummary
from repro.obs import DecisionTracer, parse_trace_line, spans_to_jsonl
from repro.telemetry import MetricRegistry, SloTracker, render_openmetrics, snapshot_to_jsonl
from repro.telemetry.snapshot import parse_snapshot_line
from repro.workloads import (
    CPU_BOUND,
    DISK_BOUND,
    HighBurstLoad,
    LowBurstLoad,
    MicroserviceProfile,
    ServiceLoad,
)
from repro.workloads.graph import three_tier_app

ARTEFACTS = ("summary", "events", "timeline", "trace", "openmetrics", "snapshot")

#: sha256 per artefact, per run.  Keys are policy names plus prefixed keys
#: for the other runs ("app:three-tier", "load:disk-bound").
GOLDEN: dict[str, dict[str, str]] = {
    "app:three-tier": {
        "summary": "759d78970694e569c42abf6519debc4fbbaed5b29835308b5d1762b86a50c8a3",
        "events": "9785ac3152867cde2b54f117fc815ed08e4e10e59934aa6a90e54a2b983171f3",
        "timeline": "c7b45d1ecd62f83cb650fd07e22eced681af164318bb030f2dd1401ec6544d7e",
        "trace": "cf0c852223a467e2bd30053e1b4e0067c6561eb582f7bb09ade182bea99fe622",
        "openmetrics": "f4ba80b3303a17fae6f4d718de76c5402ff45371b7d238a8c839217f3afd5a55",
        "snapshot": "33d8253c4f93d911740aee0e8658962197cda90631aafc00040a2d9f0ea81fd4",
    },
    "load:disk-bound": {
        "summary": "397656ea46723e93ae713916f4ed3182bc461714be4c7cf212539d874b9e9dec",
        "events": "b4676ab17aa8fb7ea08582fa0f461b309eaee0ddaf5feb221637721c7d024172",
        "timeline": "91440176bfadde267a32d34716619f84d1126977cb95daa5c6760d55fbe13764",
        "trace": "ed0a90ed2041f517571a4de2cdaf0b86ac4d22275fa574b64a35c538ebf710a3",
        "openmetrics": "ff46df9ee4af17be9280d4ecab6c6286056371dbd116f2644b1f48f9e27aeca2",
        "snapshot": "60b92f4768d65f29c4300d743c35cd153b89046d645109bcc8b4c752ef861a3f",
    },
    "disk": {
        "summary": "8e90d6edcea7cb2c230429daedbf23227ab4ac97b0fba5432545cfeac4c40f7d",
        "events": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "timeline": "e96e6785851b8d93ee0dd87fc094262e58f68b49077934f112c91dd916e77cab",
        "trace": "f3a6d1b264caa1dbb6b7501c5adf52b278cd54566ae363adfb633ecfd52ae514",
        "openmetrics": "47649a2b875a1e0e1e1dcbc8932a373c1d7f8516a96da688ec59d7ca38e0d58f",
        "snapshot": "3a2b3aa42fc379c20c1cceb710baa26f8b148ae9d41e3dc2d7f99735bafbaf34",
    },
    "elasticdocker": {
        "summary": "c46ef3b2de9efe6977c618e00b490258624ee73963d5220c1bec86dfb94532b2",
        "events": "77801114abbf934adab24f9e2a5214d217f68c70b90c5f189848de0617bf3f04",
        "timeline": "bd871f5850f4876032fd8d54a31f1065f372efb22ea9c2787992c6964040f251",
        "trace": "0568b0a56884ed3814f2b5e0e2dd21f8d51f15ce5f41708de9d421deb07f7eb4",
        "openmetrics": "c4d09a82f116437ce07ac744fe2051f1f0f93562e3c0ec8d8e6d2ebb34405141",
        "snapshot": "014e01209e8d89df2031338889c4d6dbb6b135eabf5ab791c92d8aba16c31a8d",
    },
    "hybrid": {
        "summary": "9f17637fe7285819d93b74a9ca6a2d73b4955716e969655f4061a5b95009e258",
        "events": "faba4dd146fe78c0178095041bb78c222b0be7201456b7aa9df1a5dbbe67c93e",
        "timeline": "3ca3fedf34d73419870bf2338b2cb21a98b7eb5d2fee029b29180cd81287a81f",
        "trace": "fd5d4ecc3441124ec4d8d9349b9100048dbafa6706d40381d0fdb5bca2b6625d",
        "openmetrics": "8de7220d4c0bad2ccf6445a35acd7a803f80dc883db32fed4364fdf7bf28ac87",
        "snapshot": "3077657374c5300e4c9645b61ae6c74066a36022b279f963ea66c1b46bee1287",
    },
    "hybridmem": {
        "summary": "ab0d8318b499a0a17adaac7e40f643c97a6c2720ee5ece81c64f6cf10a1e1286",
        "events": "ebc9fcae0db2fb5b4ede05b0bf124c1be2d4e31a0f11dfb52f16ef66bd85b4c3",
        "timeline": "51dff998026b6794ea0f264bbf50e4ede1d9e99bb12747abfe9bfbe1a3b427a9",
        "trace": "e84e2bf0feadaf182af6b57c8d1bcba69b1230df5256ab83782c0201326879b0",
        "openmetrics": "44a6aad60317a0bee39fc1a9429f758320ed5c89b57636eea6d7d91c8d450c69",
        "snapshot": "3ec3c9468a1a432c6909305ab18645d28112a806bd65afed3c1463bb36638936",
    },
    "kubernetes": {
        "summary": "00335b0a1a60678026bb448f894716161798e70a206fd84126d6af37b015e78d",
        "events": "2540d94f5657cdcb61e33c1746b8c670dafb5678bcda7d75420b08d03fa09a0f",
        "timeline": "edb38fce24b3feed41b342c9a1e54da3b23f532d93d0693c508386f169d805f4",
        "trace": "35b9e6ced6c14f983a3e72202305501cf4c24af97cb795335121496e25f82faf",
        "openmetrics": "67365f653d64888b40510d8534d287f4e43c7883eed681d43b66dbd64c53e8e0",
        "snapshot": "921362a78b46a759ad713efef5ca131bc02771d6b08a015923c709ad060f1c79",
    },
    "kubernetes-mem": {
        "summary": "79c81cf23f4a0fe9480c2e0a9fb159889c4e232e9f5db60fa5036fd1799f059e",
        "events": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "timeline": "e96e6785851b8d93ee0dd87fc094262e58f68b49077934f112c91dd916e77cab",
        "trace": "74be835251a806c112f50269ce8c754ae89e00a1493b3e313add8bec46dbc7e0",
        "openmetrics": "47649a2b875a1e0e1e1dcbc8932a373c1d7f8516a96da688ec59d7ca38e0d58f",
        "snapshot": "3a2b3aa42fc379c20c1cceb710baa26f8b148ae9d41e3dc2d7f99735bafbaf34",
    },
    "kubernetes-multi": {
        "summary": "2aea03b7740b7d016b2d3cb99889f7578304460bd1165e4698a8d7ae1eb7f411",
        "events": "dc4f5fea785edac9b2e929cb44ffba5b721c3d71f7b0d6b7f89523fe422d6a06",
        "timeline": "db773bb10b483364fed4eb758be3e83f64586e41807cbd846dec61cd6b60d7c8",
        "trace": "e50fee708bde8d0bf4049fa6e76eb559d73fbe58448c04339999b00eb46fba26",
        "openmetrics": "945de7a5712f40a4bfc088c0be82c9620eeb0dd2be30b99a46fa2416e0f9a311",
        "snapshot": "3a657709669af9a5166f8bc65415e201bb4bad8d82b9d909d82d4c45fd1173c3",
    },
    "network": {
        "summary": "9e94de27691b7e9da13f9fe86aa719280a59879c79f77a910213211de741d1fb",
        "events": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "timeline": "e96e6785851b8d93ee0dd87fc094262e58f68b49077934f112c91dd916e77cab",
        "trace": "f614cc2c422f1acb19cffe42458d35a3e83bda57c731842496d9b08ae7870a31",
        "openmetrics": "47649a2b875a1e0e1e1dcbc8932a373c1d7f8516a96da688ec59d7ca38e0d58f",
        "snapshot": "3a2b3aa42fc379c20c1cceb710baa26f8b148ae9d41e3dc2d7f99735bafbaf34",
    },
    "predictive": {
        "summary": "a8de2a4ddd1b094b003527f0beb773dc858dcefe4827a44ffd3d254a583d99eb",
        "events": "ccbc3aa5363cc970aa191aa33a075cbc013b134747a2e8e76deeba4209501d80",
        "timeline": "1a7c356b306d98b6375e102d7dc26b1f3f42ac492ed53f7cb6f8bc7e8b40f16b",
        "trace": "87485db837e4ba020dd4f87b491613188997860054cb5a171a016f1bf97627dd",
        "openmetrics": "89336a8b6baad74383f3fd6bc95f88d149ceb06585ee982150b290e0de723719",
        "snapshot": "f51266996043d79c7f23839cf19ee67694386e27801236ac9f2b98008a5c252c",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _observed_run(duration: float, **build: object) -> dict[str, str]:
    """Run one fully observed simulation; digest its six artefacts."""
    tracer = DecisionTracer()
    registry = MetricRegistry()
    slo = SloTracker(Sla(response_time_target=5.0, availability_target=0.95))
    simulation = Simulation.build(
        observe=Observe(tracer=tracer, telemetry=registry, slo=slo), **build
    )
    summary = simulation.run(duration)
    now = simulation.engine.clock.now
    events = [{**asdict(e), "kind": e.kind.value} for e in simulation.collector.events.events()]
    texts = {
        "summary": json.dumps(summary.to_dict(), sort_keys=True),
        "events": json.dumps(events, sort_keys=True),
        "timeline": json.dumps([asdict(p) for p in simulation.collector.timeline], sort_keys=True),
        "trace": spans_to_jsonl(tracer.spans()),
        "openmetrics": render_openmetrics(registry),
        "snapshot": snapshot_to_jsonl(registry, now=now, alerts=slo.alerts()),
    }
    assert summary.total_requests > 100, "the pinned run must exercise the engine"
    # Each written document decodes back to an equal object.
    decoded = RunSummary.from_dict(json.loads(texts["summary"]))
    assert json.dumps(decoded.to_dict(), sort_keys=True) == texts["summary"]
    trace = texts["trace"].splitlines()
    assert spans_to_jsonl([parse_trace_line(line) for line in trace]) == texts["trace"]
    snapshot = texts["snapshot"].splitlines()
    assert [canonical_json(parse_snapshot_line(line)) for line in snapshot] == snapshot
    return {name: _sha(texts[name]) for name in ARTEFACTS}


def policy_digests(
    policy: str,
    *,
    profile: MicroserviceProfile = CPU_BOUND,
    pattern: HighBurstLoad = HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
    worker_nodes: int = 24,
    workload_label: str = "backend-parity",
) -> dict[str, str]:
    """Two bursty services (CPU-bound by default) on the paper's 24 workers, 45 s."""
    specs = [
        MicroserviceSpec(
            name=f"svc-{i}", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=8
        )
        for i in range(2)
    ]
    loads = [ServiceLoad(service=spec.name, profile=profile, pattern=pattern) for spec in specs]
    return _observed_run(
        45.0,
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=worker_nodes), seed=7),
        specs=specs,
        loads=loads,
        policy=policy,
        # The label is part of the pinned summary bytes.
        workload_label=workload_label,
    )


def disk_bound_digests() -> dict[str, str]:
    """Two bursty disk-bound services on 8 workers under the disk policy.

    The policy runs above use CPU-bound load, so their disks stay idle;
    this run is the one that pins disk grants (and their seek thrash).
    """
    return policy_digests(
        "disk",
        profile=DISK_BOUND,
        pattern=HighBurstLoad(base=6.0, peak=30.0, period=40.0, duty=0.4),
        worker_nodes=8,
        workload_label="disk-bound",
    )


def app_digests() -> dict[str, str]:
    """The three-tier app (db capped at 2 replicas) on 8 workers, 60 s."""
    return _observed_run(
        60.0,
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=8), seed=7),
        loads=[
            ServiceLoad(
                service="frontend",
                profile=CPU_BOUND,
                pattern=LowBurstLoad(base=8.0, amplitude=0.3, period=120.0),
            )
        ],
        policy="hybrid",
        workload_label="app-graph-test",
        app=three_tier_app(db_max_replicas=2),
    )


def test_every_registered_policy_is_pinned():
    # Prefixed keys ("app:", "load:") name runs, not policies.
    assert sorted(k for k in GOLDEN if ":" not in k) == list(registered_policies())


@pytest.mark.parametrize("policy", registered_policies())
def test_policy_run_matches_golden_digests(policy):
    assert policy_digests(policy) == GOLDEN[policy]


def test_three_tier_app_run_matches_golden_digests():
    assert app_digests() == GOLDEN["app:three-tier"]


def test_disk_bound_run_matches_golden_digests():
    assert disk_bound_digests() == GOLDEN["load:disk-bound"]
