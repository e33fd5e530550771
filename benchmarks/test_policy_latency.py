"""Decision latency of every algorithm at cluster scale.

Section I: "These resource allocations and reconfigurations must be
determined in real-time, thus limiting the time spent searching the
solution space."  The MONITOR calls ``decide()`` every 5 s; a policy that
cannot decide well inside that period at data-centre scale is not viable.

Unlike the figure benchmarks (simulation runs), these time ``decide()``
itself: each case makes a fixed number of calls, each on a fresh policy,
against a frozen synthetic snapshot of a large cluster — 100 services x up
to 16 replicas on 240 nodes — with ``time.perf_counter``, prints the mean
and the max, and bounds the mean.
"""

import time

import pytest

from repro.core.disk import DiskHpa
from repro.core.elasticdocker import ElasticDockerPolicy
from repro.core.hyscale import HyScaleCpu
from repro.core.hyscale_mem import HyScaleCpuMem
from repro.core.kubernetes import KubernetesHpa
from repro.core.network import NetworkHpa
from repro.core.view import ClusterView, NodeView, ReplicaView, ServiceView
from repro.cluster.resources import ResourceVector

N_SERVICES = 100
N_NODES = 240


def big_view(seed: int = 0) -> ClusterView:
    """A deterministic, heterogeneous snapshot of a large busy cluster."""
    import numpy as np

    rng = np.random.default_rng(seed)
    node_names = [f"n{i:03d}" for i in range(N_NODES)]
    allocated = {name: ResourceVector.zero() for name in node_names}
    hosted: dict[str, set] = {name: set() for name in node_names}

    services = []
    for s in range(N_SERVICES):
        name = f"svc-{s:03d}"
        replicas = []
        for r in range(int(rng.integers(1, 16))):
            node = node_names[int(rng.integers(0, N_NODES))]
            cpu_request = float(rng.uniform(0.25, 1.5))
            mem_limit = float(rng.uniform(256.0, 1024.0))
            replicas.append(
                ReplicaView(
                    container_id=f"{name}.r{r}",
                    service=name,
                    node=node,
                    booting=False,
                    cpu_request=cpu_request,
                    cpu_usage=float(rng.uniform(0.0, 2.5)),
                    mem_limit=mem_limit,
                    mem_usage=float(rng.uniform(100.0, 1200.0)),
                    net_rate=50.0,
                    net_usage=float(rng.uniform(0.0, 80.0)),
                    disk_quota=50.0,
                    disk_usage=float(rng.uniform(0.0, 80.0)),
                )
            )
            allocated[node] = allocated[node] + ResourceVector(cpu_request, mem_limit, 50.0)
            hosted[node].add(name)
        services.append(
            ServiceView(
                name=name,
                min_replicas=1,
                max_replicas=16,
                target_utilization=0.5,
                base_cpu_request=0.5,
                base_mem_limit=512.0,
                base_net_rate=50.0,
                replicas=tuple(replicas),
            )
        )

    nodes = tuple(
        NodeView(
            name=name,
            capacity=ResourceVector(4.0, 8192.0, 1000.0),
            allocated=allocated[name],
            services=tuple(sorted(hosted[name])),
        )
        for name in node_names
    )
    return ClusterView(now=1000.0, services=tuple(services), nodes=nodes)


VIEW = big_view()

POLICIES = {
    "kubernetes": KubernetesHpa,
    "network": NetworkHpa,
    "disk": DiskHpa,
    "hybrid": HyScaleCpu,
    "hybridmem": HyScaleCpuMem,
    "elasticdocker": ElasticDockerPolicy,
}


#: Timed ``decide()`` calls per policy.
CALLS = 20


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_decide_latency(name):
    """decide() on 100 services / 240 nodes must fit the 5 s period with
    orders of magnitude to spare."""
    policy_cls = POLICIES[name]
    seconds = []
    for _ in range(CALLS):
        start = time.perf_counter()
        # Fresh policy per call: interval guards would otherwise mute
        # everything after the first decision.
        actions = policy_cls().decide(VIEW)
        seconds.append(time.perf_counter() - start)
        assert isinstance(actions, list)
    mean = sum(seconds) / CALLS
    print(f"\n{name}: decide() mean {1e3 * mean:.2f} ms, max {1e3 * max(seconds):.2f} ms "
          f"over {CALLS} calls")
    # The real-time constraint, with a 100x safety margin on the 5 s period.
    assert mean < 0.05
