"""Phase-one simplex kernel on integer tableaus.

The tableau is held as arbitrary-precision integers with one shared positive
denominator: the rational value of slot (i, j) is ``tab[i][j] / den``. A
pivot on (r, c) applies the fraction-free update

    tab'[i][j] = (tab[r][c] * tab[i][j] - tab[i][c] * tab[r][j]) // den

to every other row, leaves row r untouched and sets ``den = tab[r][c]``.
The division is always exact (the entries stay determinants of submatrices
of the original integer system), so the hot loop performs integer multiply,
subtract and one exact division per slot instead of Fraction arithmetic.

Pivots follow Bland's rule: the entering column is the lowest-index one
with a positive reduced cost, and ratio-test ties are broken towards the
lowest-index basic variable. That rules out cycling, so the loop always
terminates. Artificial variables start basic and are never priced back in.
"""


def hull_witness(rows, ncols):
    """Decide ``A x = b, x >= 0`` for the integer system ``rows = [A | b]``.

    Every row must have ``ncols + 1`` entries with a nonnegative last
    (right-hand side) entry. Returns ``(den, values)`` with the exact
    solution ``x[j] = values[j] / den`` when the system is feasible, and
    ``None`` when it is not.
    """
    m = len(rows)
    n = ncols
    tab = [list(row) for row in rows]
    # Phase-one objective: minimize the artificial variables, expressed as
    # the sum of the constraint rows so reduced costs start consistent.
    tab.append([sum(tab[i][j] for i in range(m)) for j in range(n + 1)])
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
        piv = tab[row][col]
        prow = tab[row]
        for i in range(m + 1):
            if i == row:
                continue
            trow = tab[i]
            f = trow[col]
            for j in range(n + 1):
                q, rem = divmod(piv * trow[j] - f * prow[j], den)
                if rem:
                    raise ArithmeticError("inexact fraction-free pivot")
                trow[j] = q
        den = piv
        basis[row] = col

    if tab[m][n] != 0:
        return None
    values = [0] * n
    for i in range(m):
        if basis[i] < n:
            values[basis[i]] = tab[i][n]
    return den, values
