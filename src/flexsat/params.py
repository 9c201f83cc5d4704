"""Physical constants of the satellite: two identical flexible panels and a rigid hub."""

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class PhysicalParams:
    """Beam and hub constants.

    Parameters
    ----------
    rho : float
        Linear density of each panel [kg/m].
    a : float
        Cross-section area [m^2].
    E : float
        Young's modulus [Pa].
    I : float
        Second moment of area of the cross section [m^4].
    gamma : float
        Viscous damping coefficient of the panels [N s/m^2].
    m : float
        Mass of the hub [kg].
    I_m : float
        Moment of inertia of the hub [kg m^2].

    Defaults are the reference configuration used throughout the test
    suite: unit beam and hub constants with gamma = 5.
    """

    rho: float = 1.0
    a: float = 1.0
    E: float = 1.0
    I: float = 1.0
    gamma: float = 5.0
    m: float = 1.0
    I_m: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("rho", "a", "E", "I", "m", "I_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)!r}")
        # gamma = 0 (undamped) is accepted so the conservative limit can be
        # assembled and tested; all other constants must be positive.
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma!r}")

    @property
    def rho_a(self) -> float:
        """Mass per unit length rho * a."""
        return self.rho * self.a

    @property
    def EI(self) -> float:
        """Bending stiffness E * I."""
        return self.E * self.I

    def scaled(self, **factors: float) -> "PhysicalParams":
        """Return a copy with selected fields multiplied by the given factors.

        Used for plant-perturbation experiments, e.g. ``p.scaled(gamma=0.9, m=1.1)``.
        """
        updates, names = {}, {f.name for f in fields(self)}
        for name, factor in factors.items():
            if name not in names:
                raise ValueError(f"unknown parameter {name!r}")
            updates[name] = getattr(self, name) * factor
        return replace(self, **updates)
