"""Operator i-diff propagation rules — the extensibility layer (Figure 4).

One module per operator; support for a new operator = a new module with a
``propagate_<op>`` function plus an ID-inference rule in
:mod:`repro.core.idinfer` — unless it is an existing rule at another
setting, as the semijoin is the antisemijoin's with ``negated=False``.
"""

from .aggregate import AssociativeAggregateStep, GeneralAggregateStep, OpCacheSpec
from .antijoin import propagate_antijoin
from .base import ValueSource, state_mapping, subst_state, target_name, values_via_probe
from .join import propagate_join
from .project import propagate_project
from .select import propagate_select
from .union import propagate_union

__all__ = [
    "AssociativeAggregateStep",
    "GeneralAggregateStep",
    "OpCacheSpec",
    "ValueSource",
    "propagate_antijoin",
    "propagate_join",
    "propagate_project",
    "propagate_select",
    "propagate_union",
    "state_mapping",
    "subst_state",
    "target_name",
    "values_via_probe",
]
