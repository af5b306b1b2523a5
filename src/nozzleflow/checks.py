"""The package's one verdict: a value checked against its bound."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Passes when ``value <= bound``; a NaN fails.

    A Check is truthy exactly when it passes, and its ``str`` is the one
    spelling of a verdict: pass/FAIL with the value, the bound and the
    margin ``bound - value``.
    """

    value: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def margin(self) -> float:
        return self.bound - self.value

    def __bool__(self) -> bool:
        return self.value <= self.bound

    def __str__(self) -> str:
        return (f"{'pass' if self else 'FAIL'} value={self.value:.6g} "
                f"bound={self.bound:.6g} margin={self.margin:.3g}")
