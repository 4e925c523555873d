"""Fixtures shared by the test modules."""

import pytest

import hmpseries.entropy as entropy_module


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks of the observation tree, calls of _walk at depth 0, and
    their nodes, all calls of _walk."""
    count = [0, 0]
    walk = entropy_module._walk

    def counting(beta, emit_cols_at, trans_cols_at, depth, *rest):
        count[0] += depth == 0
        count[1] += 1
        return walk(beta, emit_cols_at, trans_cols_at, depth, *rest)

    monkeypatch.setattr(entropy_module, "_walk", counting)
    return count
