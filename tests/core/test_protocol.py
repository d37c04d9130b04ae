"""The backend-neutral protocol layer (repro.core.protocol).

Satellite of the runtime backend work: ``repro.core`` must be fully
usable without the simulator — rank processes import only the core
library — while ``repro.sim.engine`` keeps re-exporting the protocol
types for backward compatibility.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.protocol import (CommHandle, _Delay, _WaitGroup,
                                 payload_nbytes)

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
    code = (
        "import sys\n"
        "import repro.runtime\n"
        "import repro.obs.runtime\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.sim'))\n"
        "assert not bad, f'simulator modules leaked: {bad}'\n"
        "print('clean')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


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
