"""The specification of ``kappa_p``'s mixing probabilities.

``kappa_p`` reads its probabilities off a distribution's stored integers;
:func:`binary_chain` computes them from the weights as Fractions, so the
tests can check one against the other.
"""

from fractions import Fraction
from typing import List

from csl.distributions import exact
from csl.errors import NotAWeightVector


def binary_chain(weights: List[Fraction]) -> List[Fraction]:
    """Mixing probabilities realizing a weight vector as a left-nested chain.

    For positive weights w_1..w_n summing to 1, returns p_1..p_{n-1} with
    p_k = (w_1 + ... + w_k) / (w_1 + ... + w_{k+1}), so that
    ((t_1 mixed_{p_1} t_2) mixed_{p_2} t_3) ... carries exactly the w_i.
    """
    ws = [exact(w) for w in weights]
    if not ws:
        raise NotAWeightVector("weight vector must be non-empty")
    if any(w <= 0 for w in ws):
        raise NotAWeightVector("weights must be strictly positive")
    if sum(ws) != 1:
        raise NotAWeightVector("weights do not sum to exactly 1")
    ps = []
    partial = Fraction(0)
    for k in range(len(ws) - 1):
        partial += ws[k]
        ps.append(partial / (partial + ws[k + 1]))
    return ps
