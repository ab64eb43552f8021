"""Phase-one simplex kernel on integer tableaus.

The tableau is held as arbitrary-precision integers with one shared
denominator: the rational value of slot (i, j) is ``tab[i][j] / den``. A
pivot on (r, c) applies the fraction-free update

    tab'[i][j] = (tab[r][c] * tab[i][j] - tab[i][c] * tab[r][j]) // den

to every other row, leaves row r untouched and sets ``den = tab[r][c]``.
The division is exact (the entries stay determinants of submatrices of the
original integer system), so the hot loop performs integer multiply,
subtract and one floor division per slot instead of Fraction arithmetic.
The kernel does not check that exactness cell by cell: ``csl.feasibility``
verifies every answer against the original system instead, so a broken
pivot shows as a failed certificate.

Pivots follow Bland's rule: the entering column is the lowest-index one
with a positive reduced cost, and ratio-test ties are broken towards the
lowest-index basic variable. That rules out cycling, so the loop always
terminates. Artificial variables start basic and are never priced back in.

An infeasible system ends with a positive phase-one objective. Its dual at
the final basis B is the Farkas certificate: with c_B the phase-one costs
of the basic variables (1 for an artificial, 0 for a column of A), the
vector y solving ``y B = c_B`` has ``y A <= 0`` (the reduced costs are
optimal) and ``y b`` equal to the remaining artificial mass, which is
positive.

:class:`Basis` answers the same question for the growing partial base E of
an extraction, keeping one basis of E's span across all its tests: the
fraction-free Gauss-Jordan form of ``[E | I]``, whose right block M has
``M E_B = den * U``, U holding one unit column per basic column (its pivot
row); every entry of M is a minor of ``[E | I]``. A new column enters by one
pivot when it lies outside the span of the basis. A target b is read off
``v = M b``. ``v`` nonzero on a row that is no pivot row puts b outside E's
span, and that row of M, signed like its entry, is a Farkas vector (0 on
E). Otherwise ``b = E_B x``, ``x[j] = v[r_j] / den`` at the pivot row r_j of
column j. With zero costs every basis is dual feasible, so Terlaky's
least-index criss-cross (*A convergent criss-cross method*, 1985) needs no
phase one: the least basic j with ``x[j] < 0`` leaves at its row r, and the
least nonbasic c with ``M[r] c`` of the sign opposite to ``den`` enters. If
there is none, minus row r of M, signed like ``den``, is a Farkas vector
(``-|den|`` on column j, 0 on the other basic columns, at most 0 on the
nonbasic ones, positive on b). The rule never cycles, from any basis, so
each test starts from the basis the last one left.
"""

from operator import mul


def hull_witness(rows, ncols):
    """Decide ``A x = b, x >= 0`` for the integer system ``rows = [A | b]``.

    Every row must have ``ncols + 1`` entries with a nonnegative last
    (right-hand side) entry. Returns ``(x, y)`` with exactly one of them
    None. When the system is feasible, ``x = (den, values)`` with the exact
    solution ``x[j] = values[j] / den``, den positive. When it is not, ``y``
    is an integer vector, one entry per row, with ``y A <= 0 < y b``.
    """
    m = len(rows)
    n = ncols
    tab = [list(row) for row in rows]
    columns = list(zip(*rows))
    # Phase-one objective: minimize the artificial variables, expressed as
    # the sum of the constraint rows so reduced costs start consistent.
    tab.append(list(map(sum, columns)))
    den = 1
    basis = list(range(n, n + m))

    while True:
        obj = tab[m]
        col = -1
        for j in range(n):
            if obj[j] > 0:
                col = j
                break
        if col < 0:
            break
        row = -1
        for i in range(m):
            a = tab[i][col]
            if a <= 0:
                continue
            if row < 0:
                row = i
                continue
            lhs = tab[i][n] * tab[row][col]
            rhs = tab[row][n] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                row = i
        if row < 0:
            # The phase-one objective is bounded, so a favorable column
            # always admits a pivot; reaching this means broken input.
            raise ArithmeticError("unbounded phase-one column")
        den = _pivot(tab, tab[row], col, den, 0)
        basis[row] = col

    if tab[m][n] != 0:
        return None, _farkas(columns, n, basis)
    values = [0] * n
    for i in range(m):
        if basis[i] < n:
            values[basis[i]] = tab[i][n]
    return (den, values), None


def _pivot(tab, prow, col, den, start):
    """Pivot on ``prow[col]``: apply the fraction-free update to every other
    row of ``tab`` from column ``start`` on, and return the new denominator.
    """
    piv = prow[col]
    width = range(start, len(prow))
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


def _farkas(columns, n, basis):
    """The integer dual ``y`` of the final phase-one basis, up to a positive
    factor: ``y B = c_B``, given the columns of ``[A | b]``.

    A basic artificial k fixes ``y[k] = 1``. The other entries solve one
    equation per basic column j of A, ``sum_k A[k][j] y[k] = 0``; there are
    as many of those columns as unknowns, and B is invertible, so the
    square system is solved by fraction-free Gauss-Jordan elimination
    (:func:`_pivot`, with rows swapped so that column c pivots in row c)
    and every entry is scaled by its final denominator.
    """
    m = len(columns[0])
    free = [k for k in range(m) if k + n not in basis]
    # One row per basic column of A: its entries on the free rows, then
    # minus its sum over the fixed ones.
    system = []
    for j in basis:
        if j < n:
            column = columns[j]
            entries = [column[k] for k in free]
            entries.append(sum(entries) - sum(column))
            system.append(entries)
    s = len(free)
    den = 1
    for c in range(s):
        r = c
        while not system[r][c]:
            r += 1
        system[c], system[r] = system[r], system[c]
        # Columns up to c are settled and never read again.
        den = _pivot(system, system[c], c, den, c + 1)
    sign = 1 if den > 0 else -1
    y = [sign * den] * m
    for k, row in zip(free, system):
        y[k] = sign * row[s]
    return y


class Basis:
    """Integer columns ``cols`` (E), each of length ``m``, grown one at a
    time, and a basis of them in the form ``M E_B = den * U``. Each row of
    ``rows`` is a row of M plus one last scratch slot, where an entering
    column's image sits while it is pivoted in. ``row_of`` holds the pivot
    row of each basic column of E, -1 for a nonbasic one.
    """

    __slots__ = ("cols", "rows", "den", "row_of", "free")

    def __init__(self, m):
        self.cols = []
        self.rows = [[0] * (m + 1) for _ in range(m)]
        for i, row in enumerate(self.rows):
            row[i] = 1
        self.den = 1
        self.row_of = []
        self.free = list(range(m))  # the rows that are no pivot row

    def image(self, c):
        """``M c``, one integer per row."""
        return [sum(map(mul, row, c)) for row in self.rows]

    def _enter(self, j, r, v):
        """Make column j, whose image is ``v``, basic at row r, by one pivot."""
        m = len(v)
        for row, a in zip(self.rows, v):
            row[m] = a
        self.den = _pivot(self.rows, self.rows[r], m, self.den, 0)
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
        """:func:`hull_witness`'s ``(x, y)`` for ``E x = b, x >= 0``: ``y``
        one integer per row of E, ``x`` one value per column."""
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
