"""Exact convex-hull membership via phase-one simplex.

The underlying kernel works on scaled integer tableaus and exists twice:
compiled (``csl._simplex``, built from Cython) and pure Python
(``csl._simplex_py``). The compiled one is picked at import time when
available; set ``CSL_KERNEL=py`` to force the fallback, ``CSL_KERNEL=c``
to insist on the compiled kernel.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence

_FORCED = os.environ.get("CSL_KERNEL", "").strip().lower()
if _FORCED in ("py", "python"):
    from . import _simplex_py as _kernel
elif _FORCED in ("c", "compiled"):
    from . import _simplex as _kernel  # type: ignore[no-redef]
else:
    try:
        from . import _simplex as _kernel  # type: ignore[no-redef]
    except ImportError:
        from . import _simplex_py as _kernel  # type: ignore[no-redef]


def kernel_name() -> str:
    """Which kernel this process is using: "compiled" or "python"."""
    return "compiled" if _kernel.__name__.endswith("._simplex") else "python"


def hull_coefficients(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Exact convex coefficients writing ``target`` over ``columns``.

    Decides whether there are alpha_j >= 0 with sum(alpha) = 1 and
    sum_j alpha_j * columns[j] = target, coordinate by coordinate. Returns
    the coefficient list when feasible, None otherwise.
    """
    n = len(columns)
    if n == 0:
        raise ValueError("need at least one column")
    rows = []
    for i, t in enumerate(target):
        frac_row = [col[i] for col in columns] + [t]
        scale = lcm(*(f.denominator for f in frac_row))
        rows.append([int(f * scale) for f in frac_row])
    rows.append([1] * n + [1])
    result = _kernel.hull_witness(rows, n)
    if result is None:
        return None
    den, values = result
    return [Fraction(v, den) for v in values]
