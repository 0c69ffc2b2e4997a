"""i-diff propagation rules for the semijoin L ⋉_φ(X̄,Ȳ) R.

The semijoin is not one of the paper's QSPJADU core operators — it is
the repository's worked example of the operator-extensibility layer
(Section 4: "the supported view definition language can be easily
extended by adding rules for additional relational algebra operators";
see docs/EXTENDING.md).  Its rules are the antisemijoin's (Table 13,
:mod:`repro.core.rules.antijoin`) with the match polarity flipped, so
this module only names that polarity.
"""

from __future__ import annotations

from ...algebra.plan import SemiJoin
from ..diffs import DiffSchema
from ..ir import IrNode
from .antijoin import propagate_semi_like


def propagate_semijoin(
    op: SemiJoin, source: IrNode, in_schema: DiffSchema, side: int
) -> list[tuple[DiffSchema, IrNode]]:
    """Instantiate the Table 13 rules with the membership polarity
    flipped, for the diff arriving from child *side*."""
    return propagate_semi_like(op, source, in_schema, side, negated=False)
