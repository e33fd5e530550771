"""The whole-program half of the analyzer, over the ``src/repro`` call graph.

* :mod:`~repro.devtools.flow.callgraph` indexes every parsed module into a
  module-resolved call graph — ``self`` dispatch, attribute-type inference
  from ``__init__``/dataclass fields, import aliasing, and a
  class-hierarchy fallback that resolves duck-typed protocol calls
  (``actor.on_step(...)`` reaches every actor).
* :mod:`~repro.devtools.flow.reachability` computes which functions can
  execute inside :meth:`Engine.step` (the hot path), inside
  :func:`run_shard_payload` (the process-pool worker), and inside the
  sweep merge.
* :mod:`~repro.devtools.flow.effects` summarises each function's effects:
  allocations, O(n) list membership, repeated deep attribute chains and
  global / ``os.environ`` writes.
* :mod:`~repro.devtools.flow.taint` propagates determinism taint from
  catalogued nondeterminism sources along the call graph into the
  canonical byte-stable sinks, killing it at catalogued sanitizers, and
  emits ranked source→sink witness chains.
* :mod:`~repro.devtools.flow.contracts` checks every autoscaling policy
  and sampling controller against its protocol.
* :mod:`~repro.devtools.flow.rules` turns those analyses into the HOT,
  PAR, DET1xx and CON rules of the one catalogue.

:mod:`repro.devtools.analyzer` runs all of it in its one pass.
"""
