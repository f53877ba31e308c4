"""The energy result of one run and the paper's Eq. (6)/(7) ratios.

Kept apart from the numpy accounting in :mod:`repro.power.energy` so
that result stores, figures and reports read energies without
importing numpy or the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .states import ProcState

__all__ = ["EnergyBreakdown", "energy_reduction", "average_power_reduction"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run over its parallel window.

    ``total`` is in cycle·P_run units.  ``by_state`` maps each state to
    (cycles, energy).  ``interval_total`` is the Eq. (1)/(5) evaluation;
    it must equal ``total``.
    """

    window: tuple[int, int]
    num_procs: int
    gated_run: bool
    total: float
    by_state: dict[ProcState, tuple[int, float]]
    interval_total: float

    @property
    def parallel_time(self) -> int:
        return self.window[1] - self.window[0]

    @property
    def average_power(self) -> float:
        """Mean power per processor in units of P_run."""
        denom = self.parallel_time * self.num_procs
        return self.total / denom if denom else 0.0

    def state_cycles(self, state: ProcState) -> int:
        return self.by_state.get(state, (0, 0.0))[0]


def energy_reduction(ungated: EnergyBreakdown, gated: EnergyBreakdown) -> float:
    """Eq. (6): :math:`E_{ug} / E_g` (> 1 means the gated run saves)."""
    if gated.total <= 0:
        raise SimulationError("gated run consumed no energy")
    return ungated.total / gated.total


def average_power_reduction(
    ungated: EnergyBreakdown, gated: EnergyBreakdown
) -> float:
    """Eq. (7): :math:`(E_{ug}/E_g) \\times (N_2/N_1)`."""
    n1 = ungated.parallel_time
    n2 = gated.parallel_time
    if n1 <= 0:
        raise SimulationError("ungated run has an empty parallel section")
    return energy_reduction(ungated, gated) * (n2 / n1)
