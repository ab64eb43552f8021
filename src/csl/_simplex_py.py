"""Exact solver for ``A x = b, x >= 0`` on integer columns.

:class:`Basis` holds integer columns E, grown one at a time, and one basis
of them as arbitrary-precision integers with one shared denominator: the
fraction-free Gauss-Jordan form of ``[E | I]``, whose right block M has
``M E_B = den * U``, U holding one unit column per basic column (its pivot
row); every entry of M is a minor of ``[E | I]``. A pivot on (r, c)
applies the fraction-free update

    tab'[i][j] = (tab[r][c] * tab[i][j] - tab[i][c] * tab[r][j]) // den

to every other row, leaves row r untouched and sets ``den = tab[r][c]``.
The division is exact (the entries stay minors of the original integer
system), so the hot loop performs integer multiply, subtract and one floor
division per slot instead of Fraction arithmetic. The kernel does not
check that exactness cell by cell: ``csl.feasibility`` verifies every
answer against the original system instead, so a broken pivot shows as a
failed certificate.

A new column enters by one pivot when it lies outside the span of the
basis. A target b is read off ``v = M b``. ``v`` nonzero on a row that is
no pivot row puts b outside E's span, and that row of M, signed like its
entry, is a Farkas vector (0 on E). Otherwise ``b = E_B x``,
``x[j] = v[r_j] / den`` at the pivot row r_j of column j. With zero costs
every basis is dual feasible, so Terlaky's least-index criss-cross (*A
convergent criss-cross method*, 1985) needs no phase one: the least basic j
with ``x[j] < 0`` leaves at its row r, and the least nonbasic c with
``M[r] c`` of the sign opposite to ``den`` enters. If there is none, minus
row r of M, signed like ``den``, is a Farkas vector (``-|den|`` on column
j, 0 on the other basic columns, at most 0 on the nonbasic ones, positive
on b). The rule never cycles, from any basis, so each test starts from the
basis the last one left. ``csl.feasibility.PartialBase`` builds every
basis the library asks; :func:`hull_witness`, a fresh basis of all the
columns of ``[A | b]``, serves the benchmark's tracer and this kernel's tests.
"""

from operator import mul


def hull_witness(rows, ncols):
    """Decide ``A x = b, x >= 0`` for the integer system ``rows = [A | b]``,
    each row of ``ncols + 1`` entries, by :meth:`Basis.answer`."""
    return Basis(len(rows), list(zip(*rows))[:ncols]).answer([row[ncols] for row in rows])


def _pivot(tab, prow, col, den):
    """Pivot on ``prow[col]``: apply the fraction-free update to every other
    row of ``tab``, and return the new denominator."""
    piv = prow[col]
    width = range(len(prow))
    for trow in tab:
        if trow is prow:
            continue
        f = trow[col]
        if f:
            for j in width:
                trow[j] = (piv * trow[j] - f * prow[j]) // den
        else:  # the row only moves to the new denominator
            for j in width:
                trow[j] = piv * trow[j] // den
    return piv


class Basis:
    """Integer columns ``cols`` (E), each of length ``m``, built from ``cols``
    and grown one at a time, and a basis of them, ``M E_B = den * U``. Each
    row of ``rows`` is a row of M plus one last scratch slot, where an
    entering column's image sits while it is pivoted in. ``row_of`` holds
    the pivot row of each basic column of E, -1 for a nonbasic one.
    """

    __slots__ = ("cols", "rows", "den", "row_of", "free")

    def __init__(self, m, cols=()):
        self.cols = []
        self.rows = [[0] * (m + 1) for _ in range(m)]
        for i, row in enumerate(self.rows):
            row[i] = 1
        self.den = 1
        self.row_of = []
        self.free = list(range(m))  # the rows that are no pivot row
        for c in cols:
            self.add(c)

    def image(self, c):
        """``M c``, one integer per row."""
        return [sum(map(mul, row, c)) for row in self.rows]

    def _enter(self, j, r, v):
        """Make column j, whose image is ``v``, basic at row r, by one pivot."""
        m = len(v)
        for row, a in zip(self.rows, v):
            row[m] = a
        self.den = _pivot(self.rows, self.rows[r], m, self.den)
        self.row_of[j] = r

    def add(self, c):
        """Append the column c to E; it becomes basic at its first nonzero
        free row, and stays nonbasic when it lies in the span of the basis."""
        self.cols.append(c)
        self.row_of.append(-1)
        v = self.image(c)
        for r in self.free:
            if v[r]:
                self.free.remove(r)
                self._enter(len(self.cols) - 1, r, v)
                return

    def answer(self, b):
        """Decide ``E x = b, x >= 0``. Returns ``(x, y)``, exactly one of
        them None: ``x = (den, values)``, the exact solution
        ``x[j] = values[j] / den`` with den positive, one value per column,
        or ``y``, one integer per row of E, with ``y E <= 0 < y b``."""
        while True:
            v = self.image(b)
            for i in self.free:
                if v[i]:
                    sign = 1 if v[i] > 0 else -1
                    return None, [sign * a for a in self.rows[i][:-1]]
            sign = 1 if self.den > 0 else -1
            r = next((r for r in self.row_of if r >= 0 and sign * v[r] < 0), -1)
            if r < 0:
                return (sign * self.den, [sign * v[r] if r >= 0 else 0 for r in self.row_of]), None
            row = self.rows[r]
            j = next((j for j, (c, s) in enumerate(zip(self.cols, self.row_of))
                      if s < 0 and sign * sum(map(mul, row, c)) < 0), -1)
            if j < 0:
                return None, [-sign * a for a in row[:-1]]
            self.row_of[self.row_of.index(r)] = -1
            self._enter(j, r, self.image(self.cols[j]))
