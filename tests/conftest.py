"""Fixtures shared by the test modules."""

import pytest

import hmpseries.entropy as entropy_module


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks of the observation tree, calls of _walk at depth 0,
    and the nodes they expand: the widths of their levels depth..n-1, each
    the product of the symbol counts above it."""
    count = [0, 0]
    walk = entropy_module._walk

    def counting(start, emit_at, trans_at, depth, n, *rest):
        count[0] += depth == 0
        width = 1
        count[1] += 1  # the start
        for cols in emit_at[depth:n - 1]:
            width *= len(cols)
            count[1] += width
        return walk(start, emit_at, trans_at, depth, n, *rest)

    monkeypatch.setattr(entropy_module, "_walk", counting)
    return count


@pytest.fixture(autouse=True)
def no_recorded_windows():
    """Starts every test with no window value recorded (entropy._RECORDED), so
    that no test's walks depend on the tests that ran before it."""
    entropy_module._RECORDED.clear()
