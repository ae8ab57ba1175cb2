"""Half-up percentage rounding used by every printed table.

Python's round() is banker's rounding; report tables round half away from
zero at the printed precision, so all percentages funnel through here.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP


def round_half_up(value: Decimal, places: int) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(value.quantize(quantum, rounding=ROUND_HALF_UP))


def percentage(numerator: int, denominator: int, places: int) -> float:
    """100 * numerator / denominator, half-up at ``places`` decimals.

    Exact integer arithmetic before the final quantize, so printed-table
    recomputation never drifts through binary floats.
    """
    return ratio(100 * numerator, denominator, places)


def ratio(numerator: int, denominator: int, places: int = 2) -> float:
    if denominator <= 0:
        raise ZeroDivisionError("ratio denominator must be positive")
    return round_half_up(Decimal(numerator) / Decimal(denominator), places)
