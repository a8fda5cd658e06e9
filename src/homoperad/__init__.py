"""Rewriting in free linear operads: terms, completion, tree automata,
Hilbert series, and a finite-dimensional hom-algebra laboratory."""

from .terms import (
    ASS_SIGNATURE,
    Context,
    HOM_SIGNATURE,
    Permutation,
    Signature,
    TermError,
    act,
    compose,
    parse,
    planarize,
)
from .linear import IncomparableLeading, LinComb, compose_linear, leading_monomial
from .orders import LEX_MA, RIGHT_COMB, TermOrder, get_order
from .rewrite import (
    RewritingSystem,
    Rule,
    RuleError,
    find_redexes,
    is_irreducible,
    make_rule,
    normal_form,
    parse_lincomb,
    parse_rules,
)
from .completion import Ambiguity, CompletionState, ambiguities, complete, overlaps, resolve
from .automata import determinize, grammar_from_rules
from .series import BivariateSeries, free_series, hilbert_series, solve_series
from .homalgebra import (
    FiniteHomAlgebra,
    check_hom_associative,
    check_hom_jacobi,
    check_multiplicative,
    check_skew,
    commutator_algebra,
    envelope_presentation,
    example1,
    q_sl2,
    yau_twist,
)
from .sigma_model import SigmaDerivationModel, check_six_term_jacobi, sigma_bracket

__version__ = "0.1.0"
