"""Shared fixtures."""
import pytest

from bethe_xxz import dispatch
from bethe_xxz.model import NoRootOnBranch


@pytest.fixture
def fail_complex(monkeypatch):
    """Make dispatch's complex-pair solver raise for the pairs it is told.

    Every complex pair solves, so the failure paths of the batch, the
    records and the exit codes are driven by a stand-in that raises
    NoRootOnBranch where `fails(q)` is true and solves the rest.
    """

    def install(fails):
        solve = dispatch.solve_complex

        def failing(q, p, **kwargs):
            if fails(q):
                raise NoRootOnBranch(f"forced failure of ({q.j1}, {q.j2})")
            return solve(q, p, **kwargs)

        monkeypatch.setattr(dispatch, "solve_complex", failing)

    return install
