"""Fixtures shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Fail a test that leaves worker processes running, such as a trace
    writer's pool that was not joined after a write that raised."""
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes left running: {leaked}"
