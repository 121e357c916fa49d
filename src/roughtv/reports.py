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
    passed is margin >= -PASS_SLACK * max(|lhs|, |rhs|, scale), with the
    term scale that `bound_report` was given: the inequality holds up to a
    rounding allowance relative to the sizes involved, so scaling the
    inputs never changes the verdict, and a tie passes.  Extras are
    informational and may be non-finite.
    """

    lhs: float
    rhs: float
    margin: float
    passed: bool
    constant_used: float
    variant: str
    extras: dict = field(default_factory=dict)


def bound_report(lhs, rhs, constant_used, variant, extras=None, scale=0.0) -> BoundReport:
    """The report of lhs <= rhs, with `scale` the size of the terms lhs sums.

    A pair's check passes the sum of |cells| its lhs is summed from
    (`SampledPair.centered_scale`, or `scale` where the lhs moves with a
    constant added to f): the lhs's rounding is about
    cells * 2^-53 * scale, far inside PASS_SLACK * scale.  A single path's
    report passes 0.
    NonFiniteValueError unless lhs, rhs, constant_used and scale are all
    finite: an infinite allowance would pass any report.
    """
    lhs, rhs, constant_used = float(lhs), float(rhs), float(constant_used)
    if not all(map(math.isfinite, (lhs, rhs, constant_used))):
        raise NonFiniteValueError(
            f"{variant}: lhs {lhs}, rhs {rhs} and constant {constant_used} "
            "must all be finite"
        )
    if not math.isfinite(scale):
        raise NonFiniteValueError(f"{variant}: term scale {scale} overflows float64")
    margin = rhs - lhs
    passed = margin >= -PASS_SLACK * max(abs(lhs), abs(rhs), scale)
    return BoundReport(lhs, rhs, margin, passed, constant_used, variant,
                       dict(extras or {}))
