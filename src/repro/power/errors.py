"""Power-management exceptions (a leaf module: LPME and CPME both raise)."""

from __future__ import annotations


class PowerIntegrityError(RuntimeError):
    """An operation would push committed budgets past the board limit."""


class BudgetFloorError(PowerIntegrityError):
    """A unit's budget would fall below its static (leakage) floor."""
