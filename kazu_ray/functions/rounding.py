"""Arithmetic helpers matching SQL semantics: ROUND (half away from
zero) and division by zero.

Python's round()/np.round use banker's rounding; DuckDB rounds half away
from zero.  Every value that is compared against a DuckDB oracle must be
rounded with these helpers (or left unrounded when both sides perform
bit-identical arithmetic)."""

from __future__ import annotations

import numpy as np


def round_half_away(x, ndigits: int):
    """Scalar or ndarray round, half away from zero (SQL ROUND)."""
    scale = 10.0 ** ndigits
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out


def sql_div(a, b) -> float:
    """``a / b`` as DuckDB computes it: NULL (NaN here, as DuckDB's
    DataFrames show it) when the divisor is 0; NaN operands propagate
    like NULL."""
    return a / b if b else float("nan")


def pc_round_sql(arr, ndigits: int):
    """pyarrow compute round with SQL semantics."""
    import pyarrow.compute as pc

    return pc.round(arr, ndigits=ndigits, round_mode="half_towards_infinity")
