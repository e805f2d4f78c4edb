"""Fixtures shared by the test modules."""

import pytest

import braidmoves.detect as D


@pytest.fixture
def cold_tables():
    """Detection's class tables cleared before the test and after it, for
    tests that count the work of building them; the test may call the
    fixture's value to clear them again."""
    D._class_table.cache_clear()
    yield D._class_table.cache_clear
    D._class_table.cache_clear()
