"""Id-ordered membership lists against a sort on every read.

``Node``, ``Microservice`` and ``HtbQdisc`` keep their members sorted by id
and sort again only on the first read after one of their own mutators ran.
Random sequences of hosting, lifecycle and tracking operations must leave
every id-ordered read equal to sorting the member table afresh.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.microservice import Microservice, MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import OverheadModel
from repro.netsim.tc import HtbQdisc

#: Ids whose creation order differs from their sorted order.
IDS = ("svc.r3.c7", "svc.r0.c12", "svc.r1.c9", "svc.r2.c10")
OPS = ("add", "remove", "detach", "boot", "freeze", "terminate", "track", "forget")


class _Recorder(Container):
    """A container that logs the order in which the node steps it."""

    def __init__(self, container_id: str, boot: float, log: list[str]):
        super().__init__("svc", 0, 0.5, 512.0, 50.0, boot_delay=boot, container_id=container_id)
        self._log = log

    def tick_boot(self, dt: float) -> None:
        self._log.append(self.container_id)
        super().tick_boot(dt)


def _sorted_members(table: dict[str, Container]) -> list[Container]:
    return [table[key] for key in sorted(table)]


def _check(node: Node, service: Microservice, log: list[str], now: float) -> None:
    hosted = _sorted_members(node.containers)
    assert node.active_containers() == [c for c in hosted if c.is_active]
    assert node.serving_containers() == [c for c in hosted if c.is_serving]
    tracked = _sorted_members(service.replicas)
    assert service.active_replicas() == [c for c in tracked if c.is_active]
    assert service.serving_replicas() == [c for c in tracked if c.is_serving]

    # HTB: the grants come out in class-id order, as from a fresh qdisc.
    offered = {node.nic.iptables.class_of(cid): 1.0 for cid in node.containers}
    reference = HtbQdisc(node.nic.qdisc.capacity)
    for class_id in offered:
        reference.add_class(class_id, rate=node.nic.qdisc.get_class(class_id).rate)
    assert list(node.nic.qdisc.allocate(offered).items()) == list(reference.allocate(offered).items())

    # The step visits every hosted container in id order (a node with no
    # active container takes the quiet step, which visits none).
    log.clear()
    node.step(now, 1.0)
    expected = [c.container_id for c in hosted] if any(c.is_active for c in hosted) else []
    assert log == expected


class TestMembershipOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, len(IDS) - 1), st.booleans()),
            max_size=40,
        )
    )
    def test_id_ordered_reads_equal_a_fresh_sort(self, ops):
        overheads = OverheadModel()
        node = Node("n0", ResourceVector(64.0, 65536.0, 1000.0), overheads)
        service = Microservice(MicroserviceSpec(name="svc"))
        log: list[str] = []
        containers: dict[str, _Recorder] = {}
        now = 0.0
        for op, index, booting in ops:
            now += 1.0
            cid = IDS[index]
            if op in ("add", "track") and (cid not in containers or not containers[cid].is_active):
                # A fresh replica under a free id; a live one (say, detached
                # for a migration) is added or tracked as it is.
                containers[cid] = _Recorder(cid, 2.0 if booting else 0.0, log)
            container = containers.get(cid)
            hosted = cid in node.containers
            if op == "add" and not hosted:
                node.add_container(container, enforce_capacity=False)
            elif op == "remove" and hosted:
                node.remove_container(cid, now)
            elif op == "detach" and hosted:
                node.detach_container(cid)
            elif op == "boot" and container is not None:
                container.tick_boot(1.0)
            elif op == "freeze" and container is not None and container.is_active:
                container.freeze(2.0)
            elif op == "terminate" and container is not None and container.is_active:
                container.terminate(now)
            elif op == "track" and cid not in service.replicas:
                service.track(container)
            elif op == "forget" and cid in service.replicas:
                service.forget(cid)
            _check(node, service, log, now)
