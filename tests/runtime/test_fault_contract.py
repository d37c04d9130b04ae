"""One fault contract: the adversaries act identically on both backends.

The Byzantine-model events of :mod:`repro.core.faults` act at the one
send step both envs share (:meth:`RankEnvBase.isend`).  Here the same
seeded schedule drives the same per-rank send sequence through a
simulator :class:`~repro.sim.engine.RankEnv` and through
:class:`~repro.runtime.env.ProcessEnv` over in-process pipes, and both
must record the same tampers and deliver the same messages.
"""

import time

import numpy as np

from repro.core.faults import (ByzantineRank, FaultSchedule, MisroutingRank,
                               WithholdingRank)
from repro.runtime.env import ProcessEnv
from repro.sim import Machine, Ring

from .test_transport import _mesh

P = 3
SENDS = 8

#: every adversary kind, with cadences, and one rank where two events
#: collide (withhold beats misroute beats corrupt)
SCHEDULE = FaultSchedule(seed=29, events=(
    ByzantineRank(rank=0, every=2),
    MisroutingRank(rank=0, start=3, every=4),
    WithholdingRank(rank=1, start=1, every=3),
    MisroutingRank(rank=2, every=2, start=1),
    WithholdingRank(rank=2, start=3, every=4),
))


def _sends(rank):
    """Rank ``rank``'s send sequence: ``(dst, tag, payload)``."""
    for k in range(SENDS):
        dst = (rank + 1 + k % 2) % P
        yield dst, k, np.arange(5.0) + 100 * rank + k


def _key(tamper):
    return (tamper.kind, tamper.src, tamper.dst, tamper.tag, tamper.detail)


def _simulated():
    """Per-rank tamper keys and ``(src, dst, tag, payload)`` arrivals."""
    envs = {}

    def prog(env):
        envs[env.rank] = env
        for dst, tag, data in _sends(env.rank):
            env.isend(dst, data, tag=tag)
        yield env.delay(0.0)

    Machine(Ring(P)).run(prog, faults=SCHEDULE)
    tampered = envs[0].tampered
    assert all(envs[r].tampered is tampered for r in range(P))
    arrived = [(src, dst, tag, h.data)
               for dst, mq in enumerate(envs[0].engine._queues)
               for src, tag, h in mq.unexpected_items()]
    return ({r: [_key(t) for t in tampered if t.src == r]
             for r in range(P)}, arrived)


def _processes(expected_arrivals):
    transports = _mesh("local", P)
    try:
        envs = [ProcessEnv(r, P, transports[r], faults=SCHEDULE)
                for r in range(P)]
        for env in envs:
            for dst, tag, data in _sends(env.rank):
                env.isend(dst, data, tag=tag)
        arrived = []
        deadline = time.monotonic() + 10.0
        while (len(arrived) < expected_arrivals
               and time.monotonic() < deadline):
            for dst, tr in enumerate(transports):
                msg = tr.recv_any(timeout=0.01)
                if msg is not None:
                    src, tag, payload = msg
                    arrived.append((src, dst, tag, payload))
        assert all(tr.recv_any(timeout=0.05) is None for tr in transports)
        return ({env.rank: [_key(t) for t in env.tampered]
                 for env in envs}, arrived)
    finally:
        for tr in transports:
            tr.flush_and_close()


def _canonical(arrivals):
    return sorted((src, dst, tag, payload.tobytes())
                  for src, dst, tag, payload in arrivals)


def test_adversaries_tamper_and_deliver_identically_on_both_backends():
    sim_tampers, sim_arrived = _simulated()
    proc_tampers, proc_arrived = _processes(len(sim_arrived))
    assert proc_tampers == sim_tampers
    kinds = {key[0] for keys in sim_tampers.values() for key in keys}
    assert kinds == {"byzantine-rank", "withholding-rank", "misrouting-rank"}
    # withheld sends never arrive; misrouted and corrupted ones arrive
    # at the same peer with the same bytes on both backends
    withheld = sum(key[0] == "withholding-rank"
                   for keys in sim_tampers.values() for key in keys)
    assert len(sim_arrived) == P * SENDS - withheld
    assert _canonical(proc_arrived) == _canonical(sim_arrived)
