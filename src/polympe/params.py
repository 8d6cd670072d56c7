"""Physical and penalty parameters of the coupled poroelasticity-Stokes model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: the compartment that exchanges mass with the fluid across the interface
EXCHANGE = "E"


@dataclass
class PhysicalParams:
    """Coefficients of the coupled model, piecewise constant over the mesh.

    Compartment-indexed entries are keyed by the compartment label. ``beta``
    holds the inter-compartment transfer coefficients ``beta[j][k]`` (from k
    to j) and ``beta_ext`` the external ones. Penalty scalings: ``eta_bar``
    (elastic), ``zeta_bar[j]`` (pressures), ``gamma_v_bar`` and
    ``gamma_p_bar`` (fluid velocity / pressure).
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
    eta_bar: float = 10.0
    zeta_bar: dict = field(default_factory=dict)
    gamma_v_bar: float = 10.0
    gamma_p_bar: float = 10.0

    def __post_init__(self):
        J = self.compartments
        self.mu_j = {j: self.mu_j.get(j, 3.5e-3) for j in J}
        self.alpha_j = {j: self.alpha_j.get(j, 0.49) for j in J}
        self.c_j = {j: self.c_j.get(j, 1.0e-6) for j in J}
        self.k_j = {j: self.k_j.get(j, 1.0e-11) for j in J}
        self.beta = {j: {k: self.beta.get(j, {}).get(k, 1.0) for k in J} for j in J}
        self.beta_ext = {j: self.beta_ext.get(j, 1.0) for j in J}
        self.zeta_bar = {j: self.zeta_bar.get(j, 10.0) for j in J}
        self.validate()

    def validate(self):
        if EXCHANGE not in self.compartments:
            raise ValueError(f"compartments must include the exchange compartment {EXCHANGE!r}, "
                             f"got {list(self.compartments)}")
        strictly_positive = {
            "rho_el": self.rho_el, "rho_f": self.rho_f, "mu_el": self.mu_el,
            "lam": self.lam, "mu_f": self.mu_f, "eta_bar": self.eta_bar,
            "gamma_v_bar": self.gamma_v_bar, "gamma_p_bar": self.gamma_p_bar,
        }
        for j in self.compartments:
            strictly_positive[f"mu_{j}"] = self.mu_j[j]
            strictly_positive[f"c_{j}"] = self.c_j[j]
            strictly_positive[f"k_{j}"] = self.k_j[j]
            strictly_positive[f"zeta_bar_{j}"] = self.zeta_bar[j]
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

    @property
    def elastic_tensor_norm(self) -> float:
        """Largest eigenvalue of the 2D isotropic elasticity tensor,
        2 mu_el + 2 lambda (the squared 2-norm of its square root)."""
        return 2.0 * self.mu_el + 2.0 * self.lam

    def kappa(self, j: str) -> float:
        """Darcy coefficient k_j / mu_j of compartment ``j``."""
        return self.k_j[j] / self.mu_j[j]

    def darcy_tensor_norm(self, j: str) -> float:
        """2-norm of K_j = k_j I."""
        return self.k_j[j]

    @classmethod
    def unit(cls, compartments=("E",), alpha=0.5) -> "PhysicalParams":
        """All coefficients equal to 1 except the Biot-Willis alpha
        (the verification setting)."""
        J = tuple(compartments)
        return cls(
            compartments=J, rho_el=1.0, rho_f=1.0, mu_el=1.0, lam=1.0, mu_f=1.0,
            mu_j={j: 1.0 for j in J}, alpha_j={j: alpha for j in J},
            c_j={j: 1.0 for j in J}, k_j={j: 1.0 for j in J},
            beta={j: {k: 1.0 for k in J} for j in J}, beta_ext={j: 1.0 for j in J},
        )

    @classmethod
    def brain(cls, compartments=("E",)) -> "PhysicalParams":
        """Physiological values; extracellular compartment with alpha = 0.49
        and no external transfer, as in the demo regime."""
        J = tuple(compartments)
        return cls(compartments=J, beta_ext={j: 0.0 for j in J})
