"""Fixtures shared by the test modules."""

import pytest

import hmpseries.entropy as entropy_module


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks of the observation tree, calls of _walk at depth 0,
    and the nodes they expand: all calls of _walk and, as an exact walk goes
    on level by level in _level_walk, the widths of its levels 1..n-1, each
    the product of the symbol counts above it."""
    count = [0, 0]
    walk, level_walk = entropy_module._walk, entropy_module._level_walk

    def counting(beta, emit_cols_at, trans_cols_at, depth, *rest):
        count[0] += depth == 0
        count[1] += 1
        return walk(beta, emit_cols_at, trans_cols_at, depth, *rest)

    def counting_levels(start, emit_at, trans_at, n, *rest):
        width = 1
        for cols in emit_at[:n - 1]:
            width *= len(cols)
            count[1] += width
        return level_walk(start, emit_at, trans_at, n, *rest)

    monkeypatch.setattr(entropy_module, "_walk", counting)
    monkeypatch.setattr(entropy_module, "_level_walk", counting_levels)
    return count
