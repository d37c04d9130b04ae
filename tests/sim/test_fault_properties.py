"""Property test: delay-only fault schedules never change *results*.

Satellite (c) of the robustness issue (docs/robustness.md).  Jitter and
link slowdowns perturb *when* things happen, never *what* arrives: every
payload a collective delivers must be bit-identical to the clean run.
The oracle is the committed golden corpus (``result_sha256`` in
``tests/sim/goldens/corpus_v1.json``), so any silent corruption the
fault layer could introduce — a retry duplicating data, a reroute
dropping a block, a jittered match pairing the wrong ``(source, tag)``
FIFO entry — fails against a fingerprint that predates the fault layer.

Two properties, split by what the schedule may touch:

* **jitter-only** schedules leave strategy selection alone, so *every*
  corpus entry (auto dispatch included) must reproduce its golden
  ``result_sha256`` exactly;
* **slowdown** schedules additionally re-rank ``algorithm="auto"``
  dispatch by design (degraded-link pricing, ISSUE tentpole part 2), so
  the bit-identical claim is asserted on entries with a pinned
  algorithm or pure data-movement semantics, where no re-rank can
  change the combine order.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultSchedule, LinkSlowdown
from repro.sim import preset

from .spmd_corpus import (CORPUS, GOLDEN_PATH, _topo, canonical_results,
                          run_entry)

with open(GOLDEN_PATH) as f:
    _GOLDEN = json.load(f)


def _result_hash(run) -> str:
    return hashlib.sha256(canonical_results(run).encode()).hexdigest()


#: Slice of the corpus exercised under jitter: one entry per collective
#: family plus a group-shaped dispatch.  The ``ptp-churn-*`` and
#: ``barrier`` entries are excluded on purpose — their programs *return*
#: ``env.now``, a timing, which delay-only schedules change by
#: definition; the property is about delivered payloads.
JITTER_ENTRIES = (
    "bcast-auto-p12",
    "reduce-short-p12",
    "allreduce-auto-mesh4x6",
    "collect-long-torus3x4",
    "reduce_scatter-auto-p12",
    "scatter-p12",
    "gather-p12",
    "bcast-auto-subset",
)

#: Entries safe under slowdown: pinned algorithm (no auto re-rank) or
#: data-movement-only collectives (any schedule is bit-equivalent).
SLOWDOWN_ENTRIES = (
    "bcast-long-p12",
    "reduce-long-p12",
    "allreduce-short-p12",
    "collect-auto-mesh4x6",
    "reduce_scatter-long-p12",
)


class TestDelayOnlyInvariance:
    @settings(max_examples=15, deadline=None)
    @given(name=st.sampled_from(JITTER_ENTRIES),
           jitter_scale=st.floats(min_value=0.1, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_jitter_never_changes_results(self, name, jitter_scale, seed):
        params_name = CORPUS[name][1]
        alpha = preset(params_name).alpha
        fs = FaultSchedule(jitter=alpha * jitter_scale, seed=seed)
        run = run_entry(name, faults=fs)
        assert _result_hash(run) == _GOLDEN[name]["result_sha256"], name

    @settings(max_examples=15, deadline=None)
    @given(name=st.sampled_from(SLOWDOWN_ENTRIES),
           link_index=st.integers(min_value=0, max_value=10**9),
           factor=st.floats(min_value=1.0, max_value=8.0),
           start_scale=st.floats(min_value=0.0, max_value=2.0),
           transient=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_slowdown_never_changes_results(self, name, link_index,
                                            factor, start_scale,
                                            transient, seed):
        topo_spec, params_name, _ = CORPUS[name]
        params = preset(params_name)
        chans = sorted(set(_topo(*topo_spec).channels()))
        u, v = chans[link_index % len(chans)]
        t_ref = float(_GOLDEN[name]["time"])  # clean-run wall clock
        ev = LinkSlowdown(
            t=t_ref * start_scale, u=u, v=v, factor=factor,
            duration=t_ref if transient else float("inf"))
        fs = FaultSchedule(events=(ev,), jitter=params.alpha * 0.5,
                           seed=seed)
        run = run_entry(name, faults=fs)
        assert _result_hash(run) == _GOLDEN[name]["result_sha256"], name

    def test_slowed_auto_reduction_matches_oracle(self):
        """Auto entries excluded from the bit-identity claim still must
        be *numerically correct*: a slowdown that re-ranks the allreduce
        schedule yields the reference reduction under the re-ranked
        combine order."""
        import numpy as np

        from repro.core import api, validation
        from repro.sim import Machine, Mesh2D

        p, n = 12, 3072
        m = Machine(Mesh2D(3, 4), preset("paragon"))

        def prog(env):
            vec = np.arange(float(n)) * (env.rank % 7 + 1) + env.rank
            out = yield from api.allreduce(env, vec)
            return out

        fs = FaultSchedule(
            events=(LinkSlowdown(t=0.0, u=0, v=1, factor=6.0),))
        run = m.run(prog, faults=fs)
        want = validation.ref_allreduce(
            [np.arange(float(n)) * (r % 7 + 1) + r for r in range(p)])
        for r in range(p):
            np.testing.assert_allclose(run.results[r], want[r],
                                       rtol=1e-12)
