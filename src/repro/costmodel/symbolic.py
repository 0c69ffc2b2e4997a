"""Symbolic cost expressions for ∆-script cost inference (paper §6/App. A).

The analysis pass in :mod:`repro.analysis.cost` walks a generated ∆-script
and produces, per maintenance phase, a *closed-form formula* over workload
parameters — base i-diff cardinalities ``card[...]``, index fanouts
``f[...]``, selectivities ``s[...]``, locate fanouts ``loc[...]`` and
grouping compressions ``g[...]`` — predicting index lookups, tuple reads
and tuple writes.  This module provides the expression algebra those
formulas are written in:

* :class:`CostExpr` — a multivariate polynomial over named symbols,
  supporting ``+``/``*``, numeric evaluation under an environment, and a
  stable human-readable rendering;
* :class:`CostVector` — a (lookups, reads, writes) triple of expressions,
  mirroring :class:`repro.storage.counters.AccessCounts`;
* :class:`ScriptCostModel` — the per-phase formulas plus the symbol
  metadata needed to *resolve* them: definitions of derived cardinality
  symbols (e.g. an intermediate diff's card in terms of base cards) and
  a-priori numeric estimates for the leaf symbols, measured once from the
  database the view was defined over.

``ScriptCostModel.predict(env)`` evaluates every phase formula, resolving
symbols in priority order *observed environment → definition → estimate*.
Passing the observed ``MaintenanceReport.diff_sizes`` as the environment
yields the reconciliation prediction; passing nothing yields the a-priori
estimate used by the minimality lint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

Monomial = tuple[str, ...]

_EPS = 1e-12


class CostExpr:
    """A polynomial over named symbols: ``{monomial: coefficient}``.

    A monomial is a sorted tuple of symbol names (repetition encodes the
    power); the empty tuple is the constant term.  Instances are
    immutable — all operators return new expressions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, float]] = None):
        cleaned: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                if abs(coeff) > _EPS:
                    cleaned[tuple(sorted(mono))] = (
                        cleaned.get(tuple(sorted(mono)), 0.0) + coeff
                    )
        self.terms = {m: c for m, c in cleaned.items() if abs(c) > _EPS}

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, value: float) -> "CostExpr":
        return cls({(): float(value)})

    @classmethod
    def var(cls, name: str) -> "CostExpr":
        return cls({(name,): 1.0})

    @classmethod
    def zero(cls) -> "CostExpr":
        return cls()

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "CostExpr | float | int") -> "CostExpr":
        other = _coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0.0) + coeff
        return CostExpr(terms)

    __radd__ = __add__

    def __mul__(self, other: "CostExpr | float | int") -> "CostExpr":
        other = _coerce(other)
        terms: dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0.0) + c1 * c2
        return CostExpr(terms)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    # -- evaluation ----------------------------------------------------
    def evaluate(self, env: Mapping[str, float]) -> float:
        """Numeric value under *env*; raises ``KeyError`` on a free symbol."""
        total = 0.0
        for mono, coeff in self.terms.items():
            value = coeff
            for sym in mono:
                value *= env[sym]
            total += value
        return total

    # -- display -------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = "·".join(mono)
            if not mono:
                parts.append(_fmt(coeff))
            elif abs(coeff - 1.0) <= _EPS:
                parts.append(factors)
            else:
                parts.append(f"{_fmt(coeff)}·{factors}")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"CostExpr({self})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CostExpr) and other.terms == self.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def _coerce(value: "CostExpr | float | int") -> CostExpr:
    if isinstance(value, CostExpr):
        return value
    return CostExpr.const(float(value))


def _fmt(value: float) -> str:
    if abs(value - round(value)) <= 1e-9:
        return str(int(round(value)))
    return f"{value:.3g}"


ZERO = CostExpr.zero()


@dataclass(frozen=True)
class CostVector:
    """Per-metric cost formulas, mirroring ``AccessCounts``."""

    index_lookups: CostExpr = field(default_factory=CostExpr.zero)
    tuple_reads: CostExpr = field(default_factory=CostExpr.zero)
    tuple_writes: CostExpr = field(default_factory=CostExpr.zero)

    METRICS = ("index_lookups", "tuple_reads", "tuple_writes")

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(
            self.index_lookups + other.index_lookups,
            self.tuple_reads + other.tuple_reads,
            self.tuple_writes + other.tuple_writes,
        )

    def scale(self, factor: "CostExpr | float | int") -> "CostVector":
        f = _coerce(factor)
        return CostVector(
            self.index_lookups * f, self.tuple_reads * f, self.tuple_writes * f
        )

    def total(self) -> CostExpr:
        return self.index_lookups + self.tuple_reads + self.tuple_writes

    def is_zero(self) -> bool:
        return (
            self.index_lookups.is_zero()
            and self.tuple_reads.is_zero()
            and self.tuple_writes.is_zero()
        )

    def evaluate(self, env: Mapping[str, float]) -> dict[str, float]:
        out = {m: getattr(self, m).evaluate(env) for m in self.METRICS}
        out["total"] = sum(out.values())
        return out

    def symbols(self) -> set[str]:
        return (
            self.index_lookups.symbols()
            | self.tuple_reads.symbols()
            | self.tuple_writes.symbols()
        )

    def render(self) -> str:
        return (
            f"lookups: {self.index_lookups} | reads: {self.tuple_reads} "
            f"| writes: {self.tuple_writes}"
        )


def lookups(expr: "CostExpr | float | int") -> CostVector:
    return CostVector(index_lookups=_coerce(expr))


def reads(expr: "CostExpr | float | int") -> CostVector:
    return CostVector(tuple_reads=_coerce(expr))


def writes(expr: "CostExpr | float | int") -> CostVector:
    return CostVector(tuple_writes=_coerce(expr))


@dataclass
class StepCost:
    """Cost attribution for one ∆-script step (or sub-action)."""

    label: str
    phase: str
    vector: CostVector
    note: str = ""


class UnresolvedSymbolError(KeyError):
    """A formula symbol had no observed value, definition, or estimate."""


class ScriptCostModel:
    """Per-phase symbolic cost formulas for one generated ∆-script.

    * ``phases`` — phase name → :class:`CostVector` formula;
    * ``steps`` — per-step attribution (sums to ``phases``);
    * ``cards`` — definitions of derived cardinality symbols in terms of
      other symbols (intermediate diff cards, aggregate group counts);
    * ``estimates`` — a-priori numeric values for leaf symbols (fanouts,
      selectivities, nominal base diff sizes), measured at define time;
    * ``reconcile_sums`` — symbols whose observed value is the *sum* of
      several observed diff cardinalities (aggregate steps emit up to
      three diffs whose total approximates the touched-group count).
    """

    def __init__(self, view_name: str):
        self.view_name = view_name
        self.phases: dict[str, CostVector] = {}
        self.steps: list[StepCost] = []
        self.cards: dict[str, CostExpr] = {}
        self.estimates: dict[str, float] = {}
        self.reconcile_sums: dict[str, tuple[str, ...]] = {}
        self.notes: list[str] = []
        self._predict_memo: dict[tuple, Mapping[str, Mapping[str, float]]] = {}
        #: step labels left out -> the phase formulas of the other steps
        self._phases_without: dict[frozenset[str], dict[str, CostVector]] = {}

    # -- construction --------------------------------------------------
    def add(self, label: str, phase: str, vector: CostVector, note: str = "") -> None:
        if vector.is_zero():
            return
        self.steps.append(StepCost(label, phase, vector, note))
        self._phases_without.clear()
        current = self.phases.get(phase)
        self.phases[phase] = vector if current is None else current + vector

    def define_card(self, symbol: str, definition: CostExpr) -> None:
        self.cards[symbol] = definition

    def estimate(self, symbol: str, value: float) -> None:
        self.estimates[symbol] = float(value)

    # -- resolution ----------------------------------------------------
    def _resolve(
        self, symbol: str, env: Mapping[str, float], stack: tuple[str, ...]
    ) -> float:
        if symbol in env:
            return float(env[symbol])
        if symbol in stack:
            raise UnresolvedSymbolError(f"cyclic cardinality definition: {symbol}")
        if symbol in self.cards:
            return self._eval(self.cards[symbol], env, stack + (symbol,))
        if symbol in self.estimates:
            return self.estimates[symbol]
        raise UnresolvedSymbolError(symbol)

    def _eval(
        self, expr: CostExpr, env: Mapping[str, float], stack: tuple[str, ...] = ()
    ) -> float:
        total = 0.0
        for mono, coeff in expr.terms.items():
            value = coeff
            for sym in mono:
                value *= self._resolve(sym, env, stack)
            total += value
        return total

    def _augment_env(self, env: Optional[Mapping[str, float]]) -> dict[str, float]:
        full: dict[str, float] = dict(env) if env else {}
        for symbol, names in self.reconcile_sums.items():
            if symbol not in full and all(n in full for n in names):
                full[symbol] = float(sum(full[n] for n in names))
        return full

    # -- prediction ----------------------------------------------------
    def predict(
        self, env: Optional[Mapping[str, float]] = None, without: frozenset[str] = frozenset()
    ) -> dict[str, dict[str, float]]:
        """Per-phase predicted counts under *env* (falling back to
        definitions, then estimates, for unbound symbols), of every step
        but those labelled in *without*."""
        full = self._augment_env(env)
        phases = self.phases
        if without:
            phases = self._phases_without.get(without)
            if phases is None:
                phases = self._phases_without[without] = dict.fromkeys(self.phases, CostVector())
                for step in self.steps:
                    if step.label not in without:
                        phases[step.phase] = phases[step.phase] + step.vector
        out: dict[str, dict[str, float]] = {}
        for phase, vector in sorted(phases.items()):
            out[phase] = {
                metric: self._eval(getattr(vector, metric), full)
                for metric in CostVector.METRICS
            }
            out[phase]["total"] = sum(out[phase].values())
        return out

    def predict_from_diff_sizes(
        self, diff_sizes: Mapping[str, int], reused: tuple[str, ...] = ()
    ) -> Mapping[str, Mapping[str, float]]:
        """Reconciliation prediction: bind every observed diff cardinality.
        The compute statements named in *reused* ran in another view this
        round (``MaintenanceReport.reused``), so their ``COMPUTE <name>``
        steps are left out: the prediction is of what the view ran.

        Memoized on the size vector as ordered and *reused* (steady
        workloads repeat them round after round; the evaluation is pure)
        and served as the memo's own read-only mappings, copied for no
        caller."""
        key = (tuple(diff_sizes), tuple(diff_sizes.values()), reused)
        memo = self._predict_memo
        cached = memo.get(key)
        if cached is None:
            if len(memo) > 256:
                memo.clear()
            prediction = self.predict(
                {f"card[{name}]": float(n) for name, n in diff_sizes.items()},
                frozenset(f"COMPUTE {name}" for name in reused),
            )
            cached = memo[key] = MappingProxyType(
                {phase: MappingProxyType(counts) for phase, counts in prediction.items()}
            )
        return cached

    def __getstate__(self) -> dict:
        # Read-only mappings do not pickle: a shard worker memoises afresh.
        state = self.__dict__.copy()
        state["_predict_memo"] = {}
        return state

    def total(self) -> float:
        """Predicted accesses per round at the symbols' estimates."""
        return sum(p["total"] for p in self.predict().values())

    def evaluate_vector(
        self, vector: CostVector, env: Optional[Mapping[str, float]] = None
    ) -> dict[str, float]:
        """Evaluate an arbitrary :class:`CostVector` under this model's
        cardinality definitions and estimates (the sharing pass prices
        step subsets — e.g. one cached sub-plan's maintenance — without
        re-deriving the model)."""
        full = self._augment_env(env)
        return {
            metric: self._eval(getattr(vector, metric), full)
            for metric in CostVector.METRICS
        }

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for vector in self.phases.values():
            out |= vector.symbols()
        return out

    # -- display -------------------------------------------------------
    def render(self) -> str:
        lines = [f"symbolic cost model for view {self.view_name!r}:"]
        for phase, vector in sorted(self.phases.items()):
            lines.append(f"  {phase}:")
            lines.append(f"    lookups = {vector.index_lookups}")
            lines.append(f"    reads   = {vector.tuple_reads}")
            lines.append(f"    writes  = {vector.tuple_writes}")
        if self.cards:
            lines.append("  derived cardinalities:")
            for symbol, definition in sorted(self.cards.items()):
                lines.append(f"    {symbol} := {definition}")
        if self.estimates:
            lines.append("  symbol estimates:")
            for symbol, value in sorted(self.estimates.items()):
                lines.append(f"    {symbol} ≈ {_fmt(value)}")
        return "\n".join(lines)


def card_symbol(name: str) -> str:
    """The cardinality symbol for a named diff/expansion."""
    return f"card[{name}]"


def diff_sizes_env(diff_sizes: Mapping[str, int]) -> dict[str, float]:
    return {card_symbol(name): float(n) for name, n in diff_sizes.items()}
