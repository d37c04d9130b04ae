"""The backend-neutral protocol layer (repro.core.protocol).

``repro.core`` must be fully usable without the simulator — rank
processes import only the core library — while ``repro.sim.engine``
keeps re-exporting the protocol types for backward compatibility.  Both
backends match messages through the one :class:`MatchQueue` tested
here.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.core.protocol import (NO_MATCH, CommHandle, MatchQueue,
                                 _Delay, _WaitGroup, payload_nbytes)

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "..", "..", "src")


def test_core_imports_without_loading_simulator():
    """`import repro.core` must not pull in any repro.sim module."""
    code = (
        "import sys\n"
        "import repro\n"
        "import repro.core\n"
        "import repro.core.api\n"
        "import repro.core.communicator\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.sim'))\n"
        "assert not bad, f'simulator modules leaked: {bad}'\n"
        "print('clean')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_runtime_imports_without_loading_simulator():
    """Real processes run the fault contract, adversaries included,
    without loading the simulator."""
    code = (
        "import sys\n"
        "import repro.runtime\n"
        "import repro.obs.runtime\n"
        "from repro.core.faults import ByzantineRank, FaultSchedule\n"
        "tr = repro.runtime.RankTransport(0, 1, {})\n"
        "schedule = FaultSchedule(events=(ByzantineRank(rank=0),))\n"
        "env = repro.runtime.ProcessEnv(0, 1, tr, faults=schedule)\n"
        "assert env._adversary is not None and env.tampered == []\n"
        "tr.flush_and_close()\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.sim'))\n"
        "assert not bad, f'simulator modules leaked: {bad}'\n"
        "print('clean')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_profile_lookup_loads_no_simulator(tmp_path):
    """A ``ProcessMachine`` that loads a stored profile imports neither
    the simulator, the chaos autopilot nor the analysis harness: only a
    calibration pass needs the probe programs."""
    code = (
        "import sys, time\n"
        "from repro.core.params import PARAGON\n"
        "from repro.runtime import ProcessMachine\n"
        "from repro.runtime import profile\n"
        "profile.save_profile(profile.MachineProfile(\n"
        "    host=profile.host_tag(), platform=profile.platform_tag(),\n"
        "    transport='local', params=PARAGON, created=time.time()))\n"
        "m = ProcessMachine(2)\n"
        "assert m.params == PARAGON and m.profile is not None\n"
        "bad = sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.sim', 'repro.chaos', 'repro.analysis')))\n"
        "assert not bad, f'modules leaked: {bad}'\n"
        "print('clean')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC),
               REPRO_PROFILE_PATH=str(tmp_path / "profiles.json"))
    env.pop("REPRO_AUTOTUNE", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_core_never_posts_into_the_simulator_engine():
    """Core code posts through ``env.isend``/``env.irecv`` only: no
    module under ``repro.core`` may reach the engine's message layer."""
    core_dir = os.path.join(_SRC, "repro", "core")
    offenders = []
    for root, _, files in os.walk(core_dir):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    if re.search(r"_post_(send|recv)\b", line):
                        offenders.append(f"{name}:{lineno}")
    assert not offenders, offenders


def test_sim_engine_reexports_protocol_types():
    """Legacy import sites keep working and see the *same* classes."""
    from repro.core import protocol
    from repro.sim import engine

    assert engine.CommHandle is protocol.CommHandle
    assert engine.payload_nbytes is protocol.payload_nbytes
    assert engine._WaitGroup is protocol._WaitGroup
    assert engine._Delay is protocol._Delay


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80.0

    def test_scalars_and_bytes(self):
        assert payload_nbytes(7) == 8.0
        assert payload_nbytes(3.5) == 8.0
        assert payload_nbytes(b"abcd") == 4.0
        assert payload_nbytes("abcd") == 4.0

    def test_sequences_sum(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40.0
        assert payload_nbytes((1, 2.0)) == 16.0

    def test_none_is_zero_byte_sync(self):
        assert payload_nbytes(None) == 0

    def test_unsizeable_rejected(self):
        with pytest.raises(TypeError, match="pass nbytes="):
            payload_nbytes(object())


class TestRequests:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            _Delay(-1.0)

    def test_waitgroup_single_recv_unwraps(self):
        h = CommHandle("recv", 1, 0, None, 0.0, 0.0)
        h.data = "payload"
        assert _WaitGroup([h])._value() == "payload"

    def test_waitgroup_mixed_returns_list(self):
        s = CommHandle("send", 1, 0, "x", 1.0, 0.0)
        r = CommHandle("recv", 1, 0, None, 0.0, 0.0)
        r.data = "got"
        assert _WaitGroup([s, r])._value() == [None, "got"]


def _recv(src, tag):
    return CommHandle("recv", src, tag, None, 0.0, 0.0)


def _depths(q):
    return q.posted, q.unexpected


class TestMatchQueue:
    def test_fifo_within_one_source_and_tag(self):
        q = MatchQueue()
        for i in range(3):
            assert q.arrive(1, 7, f"m{i}") is NO_MATCH
        assert [q.post(1, 7, _recv(1, 7)) for _ in range(3)] == \
            ["m0", "m1", "m2"]
        posted = [_recv(2, 0) for _ in range(3)]
        for h in posted:
            assert q.post(2, 0, h) is NO_MATCH
        assert [q.arrive(2, 0, i) for i in range(3)] == posted

    def test_tags_isolate_streams(self):
        q = MatchQueue()
        q.arrive(1, 5, "tag5")
        q.arrive(1, 3, "tag3")
        assert q.post(1, 3, _recv(1, 3)) == "tag3"
        assert q.post(1, 5, _recv(1, 5)) == "tag5"

    def test_sources_isolate_streams(self):
        q = MatchQueue()
        q.arrive(1, 0, "from1")
        h = _recv(2, 0)
        assert q.post(2, 0, h) is NO_MATCH
        assert q.arrive(2, 0, "from2") is h
        assert q.post(1, 0, _recv(1, 0)) == "from1"

    def test_arrival_before_post(self):
        q = MatchQueue()
        assert q.arrive(0, 1, "early") is NO_MATCH
        assert _depths(q) == (0, 1)
        assert q.post(0, 1, _recv(0, 1)) == "early"
        assert _depths(q) == (0, 0)

    def test_post_before_arrival(self):
        q = MatchQueue()
        h = _recv(0, 1)
        assert q.post(0, 1, h) is NO_MATCH
        assert _depths(q) == (1, 0)
        assert q.arrive(0, 1, "late") is h
        assert _depths(q) == (0, 0)

    def test_depth_counters_track_every_step(self):
        q = MatchQueue()
        steps = [("post", 0, 0, (1, 0)), ("post", 0, 1, (2, 0)),
                 ("arrive", 1, 0, (2, 1)), ("arrive", 1, 0, (2, 2)),
                 ("arrive", 0, 0, (1, 2)), ("post", 1, 0, (1, 1)),
                 ("arrive", 0, 1, (0, 1)), ("post", 1, 0, (0, 0))]
        for op, src, tag, want in steps:
            if op == "post":
                q.post(src, tag, _recv(src, tag))
            else:
                q.arrive(src, tag, "x")
            assert _depths(q) == want, (op, src, tag)
        assert list(q.posted_items()) == []
        assert list(q.unexpected_items()) == []

    def test_items_walk_waiting_entries_in_fifo_order(self):
        q = MatchQueue()
        a, b = _recv(3, 0), _recv(3, 0)
        q.post(3, 0, a)
        q.post(3, 0, b)
        q.arrive(4, 2, "u0")
        q.arrive(4, 2, "u1")
        assert list(q.posted_items()) == [(3, 0, a), (3, 0, b)]
        assert list(q.unexpected_items()) == [(4, 2, "u0"), (4, 2, "u1")]

    def test_none_arrival_is_matched_and_delivered(self):
        # zero-byte sync messages carry a None payload on the process
        # backend: "no match" must never be signalled by None
        q = MatchQueue()
        assert q.arrive(0, 0, None) is NO_MATCH
        assert _depths(q) == (0, 1)
        assert q.post(0, 0, _recv(0, 0)) is None
        assert _depths(q) == (0, 0)
