"""The processor-sharing kernel against the one it replaced.

``Container._share_epochs`` spends a grant in epochs as plain arithmetic on
each request's (work, progress) pair.  The oracle below is that kernel as it
was when every epoch went through ``Request.remaining`` and
``Request.advance`` for each request in the window; it is kept here, with
those two methods, as the reference.  Both must spend the same budget,
credit the same bytes and leave every request in the same phase — stale
stored phases included, where the old ``max(0, ·)`` made the loop stop.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.config import OverheadModel
from repro.workloads.requests import Phase, Request, RequestState


# ----------------------------------------------------------------------
# The oracle: the kernel, Request.remaining and Request.advance as they were
# ----------------------------------------------------------------------
def _remaining(request: Request, phase: Phase) -> float:
    if phase is Phase.CPU:
        return max(0.0, request.cpu_work * request.overhead_factor - request.cpu_done)
    if phase is Phase.DISK:
        return max(0.0, request.disk_mb - request.disk_done)
    return max(0.0, request.net_mbits - request.net_done)


def _derive_phase(request: Request) -> Phase | None:
    if request.state is not RequestState.RUNNING:
        return None
    for phase in Phase:
        if _remaining(request, phase) > 1e-12:
            return phase
    return None


def _advance(request: Request, phase: Phase, amount: float) -> None:
    assert amount >= 0, "the oracle never credits a negative amount"
    if phase is Phase.CPU:
        request.cpu_done += amount
    elif phase is Phase.DISK:
        request.disk_done += amount
    else:
        request.net_done += amount
    if phase is request.phase and _remaining(request, phase) <= 1e-12:
        request.phase = _derive_phase(request)


def _oracle_share(cap: int, queue: list[Request], budget: float, phase: Phase) -> float:
    spent = 0.0
    while queue and budget > 1e-12:
        window = queue[:cap]
        size = len(window)
        smallest = min([_remaining(r, phase) for r in window])
        per_request = min(budget / size, smallest)
        for request in window:
            _advance(request, phase, per_request)
        epoch = per_request * size
        spent += epoch
        budget -= epoch
        if per_request < smallest - 1e-15 or per_request <= 0.0:
            break
        queue = [r for r in window if r.phase is phase] + queue[cap:]
    return spent


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
_DEMANDS = st.sampled_from([0.0, 1e-13, 0.05, 0.3, 1.0, 2.5])
#: Progress written before the kernel runs, as a fraction of a phase's work
#: (1.0 finishes the phase) plus an absolute overshoot (which makes
#: work minus progress negative).
_CREDIT = st.tuples(st.sampled_from([0.0, 0.4, 1.0]), st.sampled_from([0.0, 0.0, 1e-13, 0.01]))

_REQUEST = st.fixed_dictionaries(
    {
        "demands": st.tuples(_DEMANDS, _DEMANDS, _DEMANDS),
        "overhead": st.sampled_from([1.0, 1.0, 1.1, 1.37, 2.0]),
        "credits": st.tuples(_CREDIT, _CREDIT, _CREDIT),
        # Keep the phase derived before the credit: a stale stored phase
        # whenever the credit finished that phase.
        "stale": st.booleans(),
    }
)


_PROGRESS = ("cpu_done", "disk_done", "net_done")


def _build(cap: int, specs: list[dict]) -> tuple[Container, list[Request]]:
    container = Container(
        "svc", 0, 1.0, 512.0, 50.0, max_concurrency=cap, overheads=OverheadModel(), container_id="svc.r0.c1"
    )
    requests = []
    for i, spec in enumerate(specs):
        cpu, disk, net = spec["demands"]
        request = Request(
            service="svc",
            arrival_time=0.0,
            cpu_work=cpu,
            mem_footprint=1.0,
            disk_mb=disk,
            net_mbits=net,
            request_id=i + 1,
        )
        container.accept(request, 0.0, overhead_factor=spec["overhead"])
        before = request.phase
        work = (cpu * spec["overhead"], disk, net)
        for name, amount, (fraction, overshoot) in zip(_PROGRESS, work, spec["credits"]):
            setattr(request, name, amount * fraction + overshoot)
        request.phase = before if spec["stale"] else _derive_phase(request)
        requests.append(request)
    return container, requests


def _snapshot(requests: list[Request]) -> list[tuple]:
    return [(r.cpu_done.hex(), r.disk_done.hex(), r.net_done.hex(), r.phase) for r in requests]


class TestKernelMatchesTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        cap=st.integers(min_value=1, max_value=4),
        specs=st.lists(_REQUEST, min_size=1, max_size=8),
        phase=st.sampled_from(list(Phase)),
        budget_kind=st.sampled_from(["drawn", "drawn", "all_work", "one_epoch"]),
        drawn=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    def test_spent_progress_and_phases_are_byte_identical(self, cap, specs, phase, budget_kind, drawn):
        container, requests = _build(cap, specs)
        _, twins = _build(cap, specs)
        queue = [r for r in twins if r.phase is phase]
        left = [_remaining(r, phase) for r in queue]
        if budget_kind == "all_work":
            budget = math.fsum(left)  # the work runs out with the budget
        elif budget_kind == "one_epoch":
            budget = min(left, default=0.0) * min(cap, len(left))  # the first epoch ends exactly
        else:
            budget = drawn
        expected = _oracle_share(cap, queue, budget, phase)
        spent = container._share_epochs(container.phase_requests(phase), budget, phase)
        assert spent.hex() == expected.hex()
        assert _snapshot(requests) == _snapshot(twins)

    def test_a_stale_phase_stops_the_loop_without_crediting(self):
        # Progress ran past the work behind the stored phase's back: work
        # minus progress is negative, the old kernel read 0 and stopped.
        untouched = ((0.0, 0.0),) * 3
        overrun = ((1.0, 0.01), (0.0, 0.0), (0.0, 0.0))
        container, (stale, fresh) = _build(
            2,
            [
                {"demands": (1.0, 0.0, 0.0), "overhead": 1.0, "credits": overrun, "stale": True},
                {"demands": (1.0, 0.0, 0.0), "overhead": 1.0, "credits": untouched, "stale": False},
            ],
        )
        assert stale.phase is Phase.CPU and fresh.phase is Phase.CPU
        assert container._share_epochs(container.phase_requests(Phase.CPU), 1.0, Phase.CPU) == 0.0
        assert (stale.cpu_done, fresh.cpu_done) == (1.01, 0.0)
        assert stale.phase is None  # the zero credit moved it on, as before
