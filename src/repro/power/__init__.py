"""Power management: CPME/LPME, power integrity, DVFS energy efficiency."""

from repro.power.cpme import Cpme
from repro.power.errors import BudgetFloorError, PowerIntegrityError
from repro.power.dvfs import DvfsController, DvfsDecision, Observation, WorkloadKind
from repro.power.lpme import Lpme, WindowReport
from repro.power.model import (
    chip_power_units,
    DvfsCurve,
    UnitPowerModel,
    UnitPowerParams,
    chip_power_watts,
    dtu2_power_units,
)

__all__ = [
    "BudgetFloorError", "Cpme", "DvfsController", "DvfsCurve", "DvfsDecision", "Lpme",
    "Observation", "PowerIntegrityError", "UnitPowerModel", "UnitPowerParams",
    "WindowReport", "WorkloadKind", "chip_power_units", "chip_power_watts", "dtu2_power_units",
]
