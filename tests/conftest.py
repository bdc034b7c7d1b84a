"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from asmref import extension, triangles


@pytest.fixture
def fail_if_counting(monkeypatch):
    """A call that makes any later count by either kernel fail the test."""

    def counted(*args):
        raise AssertionError("counting started")

    def install():
        monkeypatch.setattr(triangles, "_column_sweep", counted)
        monkeypatch.setattr(triangles, "_row_transfer", counted)

    return install


@pytest.fixture
def sparse_solves(monkeypatch) -> list[int]:
    """The orders at which solve_sufficiency assembles the n^2-unknown system."""
    orders = []
    real = extension.sufficiency_system

    def system(n):
        orders.append(n)
        return real(n)

    monkeypatch.setattr(extension, "sufficiency_system", system)
    return orders
