"""Report record shared by every inequality check."""

import math
from dataclasses import dataclass, field

from .errors import NonFiniteValueError

PASS_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Computed quantity vs. computed bound.

    lhs, rhs and constant_used are finite: `bound_report` raises
    NonFiniteValueError otherwise, since a bound checked against an infinite
    or NaN side checks nothing.  So margin = rhs - lhs is finite too, and
    passed is margin >= -PASS_SLACK * max(1, |rhs|): the inequality holds up
    to a relative rounding allowance.  Extras are informational and may be
    non-finite.
    """

    lhs: float
    rhs: float
    margin: float
    passed: bool
    constant_used: float
    variant: str
    extras: dict = field(default_factory=dict)


def bound_report(lhs, rhs, constant_used, variant, extras=None) -> BoundReport:
    lhs, rhs, constant_used = float(lhs), float(rhs), float(constant_used)
    if not all(map(math.isfinite, (lhs, rhs, constant_used))):
        raise NonFiniteValueError(
            f"{variant}: lhs {lhs}, rhs {rhs} and constant {constant_used} "
            "must all be finite"
        )
    margin = rhs - lhs
    passed = margin >= -PASS_SLACK * max(1.0, abs(rhs))
    return BoundReport(lhs, rhs, margin, passed, constant_used, variant,
                       dict(extras or {}))
