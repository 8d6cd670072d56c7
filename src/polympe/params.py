"""Physical parameters of the coupled poroelasticity-Stokes model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: the compartment that exchanges mass with the fluid across the interface
EXCHANGE = "E"


def check_dirichlet(dirichlet_map, compartments) -> None:
    """Raise :class:`ValueError` unless each field of the label -> fields map
    ``dirichlet_map`` is ``d``, ``u`` or ``p:<j>`` of one of ``compartments``."""
    known = {"d", "u", *(f"p:{j}" for j in compartments)}
    for lab, fs in dirichlet_map.items():
        if unknown := sorted(set(fs) - known):
            raise ValueError(f"dirichlet {lab!r} lists unknown field(s) {unknown}; "
                             f"expected some of {sorted(known)}")


@dataclass
class PhysicalParams:
    """Coefficients of the coupled model, piecewise constant over the mesh.

    Compartment-indexed entries are keyed by the compartment label. ``beta``
    holds the inter-compartment transfer coefficients ``beta[j][k]`` (from k
    to j) and ``beta_ext`` the external ones.
    """

    compartments: tuple[str, ...] = ("E",)
    rho_el: float = 1.0e3
    rho_f: float = 1.0e3
    mu_el: float = 216.0
    lam: float = 505.0
    mu_f: float = 3.5e-3
    mu_j: dict = field(default_factory=dict)
    alpha_j: dict = field(default_factory=dict)
    c_j: dict = field(default_factory=dict)
    k_j: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)
    beta_ext: dict = field(default_factory=dict)

    def __post_init__(self):
        J = self.compartments
        self.mu_j = {j: self.mu_j.get(j, 3.5e-3) for j in J}
        self.alpha_j = {j: self.alpha_j.get(j, 0.49) for j in J}
        self.c_j = {j: self.c_j.get(j, 1.0e-6) for j in J}
        self.k_j = {j: self.k_j.get(j, 1.0e-11) for j in J}
        self.beta = {j: {k: self.beta.get(j, {}).get(k, 1.0) for k in J} for j in J}
        self.beta_ext = {j: self.beta_ext.get(j, 1.0) for j in J}
        self.validate()

    def validate(self):
        if len(set(self.compartments)) != len(self.compartments):
            raise ValueError(f"compartments must be distinct, got {list(self.compartments)}")
        if EXCHANGE not in self.compartments:
            raise ValueError(f"compartments must include the exchange compartment {EXCHANGE!r}, "
                             f"got {list(self.compartments)}")
        strictly_positive = {"rho_el": self.rho_el, "rho_f": self.rho_f, "mu_el": self.mu_el,
                             "lam": self.lam, "mu_f": self.mu_f}
        for j in self.compartments:
            strictly_positive[f"mu_{j}"] = self.mu_j[j]
            strictly_positive[f"c_{j}"] = self.c_j[j]
            strictly_positive[f"k_{j}"] = self.k_j[j]
        for name, v in strictly_positive.items():
            if not 0.0 < v < math.inf:
                raise ValueError(f"parameter {name} must be finite and strictly positive, "
                                 f"got {v}")
        for j in self.compartments:
            if not 0.0 <= self.alpha_j[j] < 1.0:
                raise ValueError(f"alpha_{j} must lie in [0, 1), got {self.alpha_j[j]}")
            if not 0.0 <= self.beta_ext[j] < math.inf:
                raise ValueError(f"beta_ext_{j} must be finite and nonnegative, "
                                 f"got {self.beta_ext[j]}")
            for k in self.compartments:
                if not 0.0 <= self.beta[j][k] < math.inf:
                    raise ValueError(f"beta[{j}][{k}] must be finite and nonnegative, "
                                     f"got {self.beta[j][k]}")

    def kappa(self, j: str) -> float:
        """Darcy coefficient k_j / mu_j of compartment ``j``."""
        return self.k_j[j] / self.mu_j[j]

    @classmethod
    def unit(cls, compartments=("E",)) -> "PhysicalParams":
        """All coefficients equal to 1 except the Biot-Willis alpha, 1/2
        (the verification setting)."""
        J = tuple(compartments)
        return cls(
            compartments=J, rho_el=1.0, rho_f=1.0, mu_el=1.0, lam=1.0, mu_f=1.0,
            mu_j={j: 1.0 for j in J}, alpha_j={j: 0.5 for j in J},
            c_j={j: 1.0 for j in J}, k_j={j: 1.0 for j in J},
            beta={j: {k: 1.0 for k in J} for j in J}, beta_ext={j: 1.0 for j in J},
        )

    @classmethod
    def brain(cls, compartments=("E",)) -> "PhysicalParams":
        """Physiological values; extracellular compartment with alpha = 0.49
        and no external transfer, as in the demo regime."""
        J = tuple(compartments)
        return cls(compartments=J, beta_ext={j: 0.0 for j in J})
