"""Report record shared by every inequality check."""

import math
from dataclasses import dataclass, field

from .errors import NonFiniteValueError

PASS_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Computed quantity vs. computed bound.

    passed is margin >= -PASS_SLACK * max(1, |rhs|): the inequality holds up
    to a relative rounding allowance.  A NaN margin is never a verdict:
    `bound_report` raises NonFiniteValueError instead.
    """

    lhs: float
    rhs: float
    margin: float
    passed: bool
    constant_used: float
    variant: str
    extras: dict = field(default_factory=dict)


def bound_report(lhs, rhs, constant_used, variant, extras=None) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    if math.isnan(margin):
        raise NonFiniteValueError(
            f"{variant}: margin rhs - lhs is NaN (lhs {lhs}, rhs {rhs})"
        )
    passed = margin >= -PASS_SLACK * max(1.0, abs(rhs))
    return BoundReport(lhs, rhs, margin, passed, float(constant_used), variant,
                       dict(extras or {}))
