"""Participant valuations, social welfare, and utility accounting.

The two valuations take floats or per-edge numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError
from .gridworld import CellRoute

MONEY_TOL = 1e-9


class DriverStatus(Enum):
    VACANT = "vacant"
    IN_SERVICE = "in_service"


@dataclass(frozen=True)
class Rates:
    """Public per-km monetary values; the rider rate exceeds the driver rate."""
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.beta > self.alpha > 0:
            raise ContractError(f"require beta > alpha > 0, got {self}")


@dataclass
class RiderRequest:
    id: str
    origin: tuple[float, float]
    dest: tuple[float, float]
    route: CellRoute
    delta_true: float      # truthful compensation rate, CNY/km of extra pick-up
    delta_reported: float  # the bid the platform actually sees
    epoch: int = 0


@dataclass
class DriverState:
    id: str
    location: tuple[float, float]
    b_true: float          # truthful cost rate, CNY/km of extra pick-up
    b_reported: float
    speed: float = 35.0
    status: DriverStatus = DriverStatus.VACANT


@dataclass(frozen=True)
class Quote:
    P_d: float
    P_r: float
    sigma: float


def driver_valuation(rates: Rates, h_r: float, b_d: float, tau_dr: float,
                     tau_min_d: float, f: float) -> float:
    """Driver's desired payment: trip cost + extra pick-up cost + opportunity cost."""
    if np.any(tau_dr < tau_min_d - MONEY_TOL) or np.any(tau_min_d < 0):
        raise ContractError(
            f"tau_dr={tau_dr} must be >= tau_min_d={tau_min_d} >= 0")
    return rates.alpha * h_r + b_d * (tau_dr - tau_min_d) + f


def rider_valuation(rates: Rates, h_r: float, delta_r: float, tau_dr: float,
                    tau_min_r: float) -> float:
    """Rider's willingness to pay, discounted for the extra pick-up wait."""
    if np.any(tau_dr < tau_min_r - MONEY_TOL) or np.any(tau_min_r < 0):
        raise ContractError(
            f"tau_dr={tau_dr} must be >= tau_min_r={tau_min_r} >= 0")
    return rates.beta * h_r - delta_r * (tau_dr - tau_min_r)


def social_welfare(P_r: float, P_d: float) -> float:
    return P_r - P_d


def quote(rates: Rates, h_r: float, b_d: float, delta_r: float, tau_dr: float,
          tau_min_d: float, tau_min_r: float, f: float) -> Quote:
    P_d = driver_valuation(rates, h_r, b_d, tau_dr, tau_min_d, f)
    P_r = rider_valuation(rates, h_r, delta_r, tau_dr, tau_min_r)
    return Quote(P_d=P_d, P_r=P_r, sigma=social_welfare(P_r, P_d))


def participant_utilities(q_d: float, q_r: float, P_d: float,
                          P_r: float) -> tuple[float, float]:
    """(driver utility, rider utility) for a priced match; unmatched utility is 0."""
    return q_d - P_d, P_r - q_r
