"""The package's verdicts: a value checked against its bound, and the one
container of named series and the checks on them."""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass
class Report:
    """Named series (name -> array) and the checks on them (name -> Check):
    the one place that judges and prints a set of checks.  ``notes`` remark
    on what was or was not checked, ``label`` names what the report covers.
    """

    series: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    label: str = ""

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failing(self) -> dict:
        """The failing checks by name; a NaN value is one of them."""
        return {k: c for k, c in self.checks.items() if not c}

    def check_lines(self, fmt: str) -> list[str]:
        """``fmt.format(name=..., check=...)`` per check, sorted by name."""
        return [fmt.format(name=name, check=check)
                for name, check in sorted(self.checks.items())]
