"""Time discretization of the simulation horizon."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a simulation object is constructed with invalid parameters."""


def check_choice(what: str, value, choices) -> None:
    """Refuse `value` unless it is one of `choices` (a table or tuple the
    caller dispatches on), naming every choice in its order."""
    if value not in tuple(choices):
        raise ConfigurationError(f"{what} {value!r} is not one of {list(choices)}")


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_K = T of the horizon [0, T].

    Uniform by default; pass explicit `nodes` for refinement studies.
    """

    horizon: float
    steps: int
    nodes: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.nodes is None:
            nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        else:
            nodes = np.asarray(self.nodes, dtype=float)
            if nodes.shape != (self.steps + 1,):
                raise ConfigurationError(
                    f"nodes must have shape ({self.steps + 1},), got {nodes.shape}"
                )
            if nodes[0] != 0.0 or not np.isclose(nodes[-1], self.horizon):
                raise ConfigurationError("nodes must start at 0 and end at the horizon")
            if np.any(np.diff(nodes) <= 0):
                raise ConfigurationError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        nodes.setflags(write=False)

    @property
    def dt(self) -> np.ndarray:
        """Step sizes t_{k+1} - t_k, length `steps`."""
        return np.diff(self.nodes)

    def coarsened(self, factor: int) -> "TimeGrid":
        """Grid keeping every `factor`-th node; `steps` must be divisible."""
        if self.steps % factor != 0:
            raise ConfigurationError("steps not divisible by coarsening factor")
        return TimeGrid(self.horizon, self.steps // factor, self.nodes[::factor])
