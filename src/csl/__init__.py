"""Exact convex sets of probability distributions and their term calculus.

The library has three layers:

* :mod:`csl.distributions` - exact rationals, finitely supported
  distributions, and their monad structure;
* :mod:`csl.convexsets` - finitely generated convex sets of distributions,
  canonicalized through their unique base, with the choice/mix algebra;
* :mod:`csl.terms` - the term syntax over choice and mixing, n-p form
  rewriting, interpretation into convex sets, and the equality decision.

``csl.cli`` exposes the same operations as the ``csl`` command.
"""

from .distributions import (
    Atom,
    Dist,
    Rational,
    convex_combine,
    d_map,
    d_mult,
    d_unit,
    dist_from_obj,
    dist_make,
    dist_to_obj,
)
from .convexsets import (
    ConvexSet,
    c_map,
    c_mult,
    c_unit,
    convex_union,
    from_generators,
    member_of_hull,
    minkowski,
    set_from_obj,
    set_to_obj,
    unique_base,
)
from .errors import (
    CslError,
    DecodeError,
    InvalidProbability,
    NotADistribution,
    NotAWeightVector,
    ParseError,
)
from .feasibility import kernel_name
from .terms import (
    Leaf,
    Mix,
    NPForm,
    Or,
    Term,
    canon,
    decide_eq,
    evaluate,
    iota,
    iota_p,
    is_np_form,
    is_pterm,
    kappa,
    kappa_p,
    parse_term,
    print_term,
    rewrite_np,
    rewrite_step,
    rewrite_steps,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "ConvexSet",
    "CslError",
    "DecodeError",
    "Dist",
    "InvalidProbability",
    "Leaf",
    "Mix",
    "NPForm",
    "NotADistribution",
    "NotAWeightVector",
    "Or",
    "ParseError",
    "Rational",
    "Term",
    "c_map",
    "c_mult",
    "c_unit",
    "canon",
    "convex_combine",
    "convex_union",
    "d_map",
    "d_mult",
    "d_unit",
    "decide_eq",
    "dist_from_obj",
    "dist_make",
    "dist_to_obj",
    "evaluate",
    "from_generators",
    "iota",
    "iota_p",
    "is_np_form",
    "is_pterm",
    "kappa",
    "kappa_p",
    "kernel_name",
    "member_of_hull",
    "minkowski",
    "parse_term",
    "print_term",
    "rewrite_np",
    "rewrite_step",
    "rewrite_steps",
    "set_from_obj",
    "set_to_obj",
    "substitute",
    "unique_base",
]
