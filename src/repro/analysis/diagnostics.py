"""Shared diagnostic model for the static analyzer.

Every pass reports through the same vocabulary: a *rule* (stable id from
the catalog below), a *severity* (fixed per rule), a *location* (a plan
node, a script step, or a free-form anchor), a message, and an optional
fix hint.  Severity policy:

* ``error`` — the generated program is wrong or will crash: maintenance
  results can diverge from recomputation.  ``repro lint`` exits nonzero
  and the fuzzer reports an ``analysis`` divergence.
* ``warning`` — legal but suspicious; a known hazard class that needs
  data to bite (e.g. a NULL-unsafe equi key over a column that happens
  never to hold NULL).
* ``info`` — neutral classification facts (e.g. sub-plans two views
  could share) surfaced for operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Rule:
    """One catalog entry; the severity is a property of the rule."""

    rule_id: str
    severity: str
    title: str


#: The rule catalog.  Ids are grouped by pass: TC1xx type/nullability,
#: KEY2xx key inference, SC3xx ∆-script IR (and RACE604, write-journal
#: coverage, from the same pass), COST5xx symbolic cost inference,
#: SHARE7xx cross-view sharing.
RULES: dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule("TC101", WARNING, "ordering comparison between incompatible types"),
        Rule("TC102", ERROR, "non-boolean expression at a filter position"),
        Rule("TC103", ERROR, "plain NOT over a nullable split predicate"),
        Rule("TC104", WARNING, "sum/avg over a non-numeric argument"),
        Rule("TC106", ERROR, "arithmetic over non-numeric operands"),
        Rule("KEY201", ERROR, "claimed ID attributes are not provably a key"),
        Rule("KEY202", ERROR, "claimed ID attributes missing from the output"),
        Rule("SC301", ERROR, "read of an undefined diff or expansion"),
        Rule("SC302", ERROR, "pre-state read of a cache while its update is in flight"),
        Rule("SC304", ERROR, "diff applied to a cache already marked post-state"),
        Rule("SC305", WARNING, "RETURNING expansion is never consumed"),
        Rule("SC306", ERROR, "operator cache over a non-associative aggregate"),
        Rule("SC307", WARNING, "NULL-unsafe equi-join key column"),
        Rule("COST501", WARNING, "∆-script predicted costlier than an enumerated alternative"),
        Rule("COST502", WARNING, "cache whose predicted amortized benefit is negative"),
        Rule("COST503", WARNING, "measured access counts exceed the symbolic prediction"),
        Rule("COST504", INFO, "sustained drift between predicted and observed cost"),
        Rule("RACE604", ERROR, "counted writer escapes write-set capture"),
        Rule("SHARE701", INFO, "identical sub-plan cached by multiple views"),
        Rule("SHARE702", INFO, "view semantically equivalent to an existing view"),
        Rule("SHARE703", INFO, "view subsumed by σ/π over another view's cache"),
        Rule("SHARE704", INFO, "statement computed by k views, executed once per round"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule + location + message (+ optional fix hint)."""

    rule_id: str
    severity: str
    location: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.severity:7s} {self.rule_id} {self.location}: {self.message}"
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        out = {
            "rule": self.rule_id,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        return out


@dataclass
class AnalysisReport:
    """Accumulated diagnostics across all passes of one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, rule_id: str, location: str, message: str, hint: str = "") -> None:
        rule = RULES[rule_id]
        self.diagnostics.append(
            Diagnostic(rule_id, rule.severity, location, message, hint)
        )

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # ------------------------------------------------------------------
    def by_severity(self, severity: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(WARNING)

    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def rule_ids(self) -> set[str]:
        return {d.rule_id for d in self.diagnostics}

    # ------------------------------------------------------------------
    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in a canonical order: rule id, severity, location.

        Every rendered or serialized view of the report goes through this
        sort, so ``repro lint --json`` output is byte-stable regardless
        of pass-internal iteration order (and of ``PYTHONHASHSEED``).
        """
        severity_rank = {ERROR: 0, WARNING: 1, INFO: 2}
        return sorted(
            self.diagnostics,
            key=lambda d: (
                d.rule_id,
                severity_rank[d.severity],
                d.location,
                d.message,
                d.hint,
            ),
        )

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        order = {ERROR: 0, WARNING: 1, INFO: 2}
        ranked = sorted(
            self.sorted_diagnostics(), key=lambda d: order[d.severity]
        )
        lines = [d.render() for d in ranked]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.by_severity(INFO))} info"
        )
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [d.to_json() for d in self.sorted_diagnostics()]
