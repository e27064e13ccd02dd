import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count map_replicas sees, without touching the real mask."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_count
