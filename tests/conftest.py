"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import asmref.triangles as triangles


@pytest.fixture
def fail_if_counting(monkeypatch):
    """A call that makes any later count by either kernel fail the test."""

    def counted(*args):
        raise AssertionError("counting started")

    def install():
        monkeypatch.setattr(triangles, "_column_sweep", counted)
        monkeypatch.setattr(triangles, "_row_transfer", counted)

    return install
