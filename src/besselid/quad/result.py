"""Common result records for the quadrature routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QuadResult:
    value: float
    err_estimate: float
    n_evals: int
    converged: bool
    info: dict = field(default_factory=dict)


class QuadRows(tuple):
    """The QuadResults of one engine call, one per row, with the call's
    total n_evals and whether every row converged."""

    @property
    def n_evals(self) -> int:
        return sum(r.n_evals for r in self)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self)
