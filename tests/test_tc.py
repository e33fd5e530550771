"""Tests (incl. property-based) for token buckets and HTB."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkSimError
from repro.netsim.tc import HtbClass, HtbQdisc, TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.consume(100.0) == 5.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        bucket.consume(5.0)
        bucket.refill(100.0)
        assert bucket.tokens == 5.0

    def test_sustained_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        bucket.consume(1.0)
        total = 0.0
        for _ in range(10):
            bucket.refill(0.1)
            total += bucket.consume(10.0)
        assert total == pytest.approx(10.0 * 1.0, rel=0.01)

    def test_set_rate_clamps_tokens(self):
        bucket = TokenBucket(rate=100.0)
        bucket.set_rate(10.0)
        assert bucket.tokens <= bucket.burst

    def test_validation(self):
        with pytest.raises(NetworkSimError):
            TokenBucket(rate=-1.0)
        with pytest.raises(NetworkSimError):
            TokenBucket(rate=1.0, burst=0.0)
        with pytest.raises(NetworkSimError):
            TokenBucket(1.0).consume(-1.0)
        with pytest.raises(NetworkSimError):
            TokenBucket(1.0).refill(-1.0)


class TestHtbClassManagement:
    def test_add_get_del(self):
        qdisc = HtbQdisc(1000.0)
        qdisc.add_class("1:1", rate=100.0)
        assert qdisc.get_class("1:1").ceil == 1000.0  # defaults to link capacity
        qdisc.del_class("1:1")
        with pytest.raises(NetworkSimError):
            qdisc.get_class("1:1")

    def test_duplicate_class_rejected(self):
        qdisc = HtbQdisc(1000.0)
        qdisc.add_class("1:1", rate=10.0)
        with pytest.raises(NetworkSimError):
            qdisc.add_class("1:1", rate=20.0)

    def test_change_class(self):
        qdisc = HtbQdisc(1000.0)
        qdisc.add_class("1:1", rate=10.0)
        qdisc.change_class("1:1", rate=50.0, ceil=100.0)
        cls = qdisc.get_class("1:1")
        assert (cls.rate, cls.ceil) == (50.0, 100.0)

    def test_ceil_below_rate_rejected(self):
        with pytest.raises(NetworkSimError):
            HtbClass("x", rate=100.0, ceil=50.0)


class TestAllocation:
    def test_guarantee_honoured(self):
        qdisc = HtbQdisc(1000.0)
        qdisc.add_class("a", rate=100.0, ceil=100.0)
        qdisc.add_class("b", rate=900.0, ceil=1000.0)
        grants = qdisc.allocate({"a": 100.0, "b": 5000.0})
        assert grants["a"] == pytest.approx(100.0)
        assert grants["b"] == pytest.approx(900.0)

    def test_borrowing_up_to_ceil(self):
        qdisc = HtbQdisc(1000.0)
        qdisc.add_class("a", rate=100.0, ceil=300.0)
        qdisc.add_class("b", rate=100.0, ceil=1000.0)
        grants = qdisc.allocate({"a": 1000.0, "b": 50.0})
        assert grants["a"] == pytest.approx(300.0)  # capped by ceil
        assert grants["b"] == pytest.approx(50.0)

    def test_borrow_proportional_to_rate(self):
        qdisc = HtbQdisc(900.0)
        qdisc.add_class("a", rate=100.0)
        qdisc.add_class("b", rate=200.0)
        grants = qdisc.allocate({"a": 1000.0, "b": 1000.0})
        # Guarantees 100/200, leftover 600 split 1:2.
        assert grants["a"] == pytest.approx(300.0)
        assert grants["b"] == pytest.approx(600.0)

    def test_oversubscribed_guarantees_scale_down(self):
        qdisc = HtbQdisc(100.0)
        qdisc.add_class("a", rate=100.0)
        qdisc.add_class("b", rate=100.0)
        grants = qdisc.allocate({"a": 100.0, "b": 100.0})
        assert grants["a"] == pytest.approx(50.0)
        assert grants["b"] == pytest.approx(50.0)

    def test_unknown_class_rejected(self):
        qdisc = HtbQdisc(100.0)
        with pytest.raises(NetworkSimError):
            qdisc.allocate({"ghost": 10.0})

    def test_negative_offered_rejected(self):
        qdisc = HtbQdisc(100.0)
        qdisc.add_class("a", rate=10.0)
        with pytest.raises(NetworkSimError):
            qdisc.allocate({"a": -1.0})

    def test_idle_classes_get_zero(self):
        qdisc = HtbQdisc(100.0)
        qdisc.add_class("a", rate=10.0)
        assert qdisc.allocate({"a": 0.0}) == {"a": 0.0}


@st.composite
def htb_scenarios(draw):
    n = draw(st.integers(1, 8))
    capacity = draw(st.floats(10.0, 2000.0, allow_nan=False))
    rates = draw(st.lists(st.floats(0.0, 500.0, allow_nan=False), min_size=n, max_size=n))
    offered = draw(st.lists(st.floats(0.0, 3000.0, allow_nan=False), min_size=n, max_size=n))
    return capacity, rates, offered


class TestAllocationProperties:
    @given(htb_scenarios())
    def test_conservation_and_caps(self, scenario):
        capacity, rates, offered = scenario
        qdisc = HtbQdisc(capacity)
        loads = {}
        for i, (rate, load) in enumerate(zip(rates, offered)):
            qdisc.add_class(f"c{i}", rate=min(rate, capacity))
            loads[f"c{i}"] = load
        grants = qdisc.allocate(loads)
        assert sum(grants.values()) <= capacity + 1e-6
        for cid, grant in grants.items():
            assert grant <= loads[cid] + 1e-6
            assert grant <= qdisc.get_class(cid).ceil + 1e-6
            assert grant >= -1e-9

    @given(htb_scenarios())
    def test_work_conserving(self, scenario):
        capacity, rates, offered = scenario
        qdisc = HtbQdisc(capacity)
        loads = {}
        for i, (rate, load) in enumerate(zip(rates, offered)):
            qdisc.add_class(f"c{i}", rate=min(rate, capacity))  # ceil = capacity
            loads[f"c{i}"] = load
        grants = qdisc.allocate(loads)
        expected = min(capacity, sum(loads.values()))
        assert sum(grants.values()) == pytest.approx(expected, rel=1e-6, abs=1e-4)


def _allocate_with_borrowing_pass(qdisc: HtbQdisc, offered: dict[str, float]) -> dict[str, float]:
    """The allocation before the borrowing pass was skipped when nothing
    can borrow: the reference the skip must match byte for byte."""
    from repro.cluster.fairshare import weighted_fair_share

    classes = {cid: qdisc.get_class(cid) for cid in offered}
    grants: dict[str, float] = {}
    ids = [cid for cid in sorted(classes) if offered.get(cid, 0.0) > 0]
    if not ids:
        return {cid: 0.0 for cid in offered}
    wanted = {cid: min(offered[cid], classes[cid].rate) for cid in ids}
    total_wanted = sum(wanted.values())
    scale = min(1.0, qdisc.capacity / total_wanted) if total_wanted > 0 else 1.0
    for cid in ids:
        grants[cid] = wanted[cid] * scale
    leftover = qdisc.capacity - sum(grants.values())
    if leftover > 1e-12:
        demands = []
        weights = []
        for cid in ids:
            cls = classes[cid]
            demands.append(max(0.0, min(offered[cid], cls.ceil) - grants[cid]))
            weights.append(max(cls.rate, 1e-6))
        borrowed = weighted_fair_share(leftover, demands, weights)
        for cid, extra in zip(ids, borrowed):
            grants[cid] += extra
    for cid in offered:
        grants.setdefault(cid, 0.0)
    return grants


#: (rate, ceil above rate, offered) per class; -0.0 rates and zero ceilings
#: make grants of -0.0 with nothing left to borrow.
_HTB_CLASS = st.tuples(
    st.sampled_from([-0.0, 0.0, 1.0, 10.0, 30.0, 250.0]),
    st.sampled_from([0.0, 0.0, 5.0, 100.0, 1000.0]),
    st.sampled_from([0.0, 0.5, 1.0, 10.0, 40.0, 600.0]),
)


class TestBorrowingSkip:
    @given(
        classes=st.lists(_HTB_CLASS, min_size=1, max_size=6),
        capacity=st.sampled_from([1.0, 50.0, 1000.0]),
    )
    def test_skip_keeps_the_grants_of_the_full_pass(self, classes, capacity):
        qdisc = HtbQdisc(capacity)
        offered = {}
        for i, (rate, extra, load) in enumerate(classes):
            cid = f"c{i}"
            qdisc.add_class(cid, rate=rate, ceil=rate + extra)
            offered[cid] = load
        got = qdisc.allocate(offered)
        want = _allocate_with_borrowing_pass(qdisc, offered)
        assert list(got) == list(want)
        assert {cid: repr(g) for cid, g in got.items()} == {cid: repr(g) for cid, g in want.items()}

    def test_negative_zero_rate_grant_reads_positive_zero(self):
        qdisc = HtbQdisc(100.0)
        qdisc.add_class("a", rate=-0.0, ceil=0.0)
        assert repr(qdisc.allocate({"a": 5.0})["a"]) == "0.0"
