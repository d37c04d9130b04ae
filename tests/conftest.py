"""Suite-wide fixtures: every test runs without ambient host state.

A stored calibration profile (``REPRO_PROFILE_PATH``, default under
``~/.cache/repro``) changes what ``algorithm="auto"`` resolves to on the
real-process backend, and ``REPRO_AUTOTUNE`` / ``REPRO_CHAOS_CORPUS``
change where the runtime and the autopilot read state from.  Each test
gets a fresh, empty profile path and neither switch, so results never
depend on the developer's home directory.  The knobs CI jobs set on
purpose to choose what the suite runs (``REPRO_RUNTIME_FULL``,
``REPRO_WORKERS``) are left alone.  README.md's environment-variable
table lists all five.
"""

import pytest


@pytest.fixture(autouse=True)
def _no_ambient_repro_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE_PATH", str(tmp_path / "profiles.json"))
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_CORPUS", raising=False)
