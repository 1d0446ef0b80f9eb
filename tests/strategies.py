"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from interpbisect import Abs, Add, Div, Max, Min, Mul, Neg, Pow, RationalConst, Sub, Var

_signed_consts = st.fractions(min_value=-50, max_value=50, max_denominator=30).map(RationalConst)


def _any_compound(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Abs, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Div, children, st.just(RationalConst(Fraction(0)))),
        st.builds(Pow, children, st.integers(min_value=0, max_value=3)),
        st.builds(Min, children, children),
        st.builds(Max, children, children),
    )


# Every node type, negative constants, subtrees without x (any subtree
# whose leaves are all constants), nested min/max, and zero divisors,
# both literal and computed.
eval_trees = st.recursive(st.one_of(st.just(Var()), _signed_consts), _any_compound, max_leaves=12)
