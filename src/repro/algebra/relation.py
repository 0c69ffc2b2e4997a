"""Transient (non-stored) relations: the values flowing between operators."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..errors import SchemaError, UnknownColumnError


class Relation:
    """An ordered bag of rows with named columns.

    Unlike :class:`~repro.storage.Table`, a Relation is not stored, not
    indexed and not instrumented — it is the in-flight result of a query
    fragment (pipelined, in the paper's terms).
    """

    __slots__ = ("columns", "rows", "_positions")

    def __init__(self, columns: Sequence[str], rows: Iterable[tuple] | None = None):
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate columns in relation: {self.columns}")
        self.rows: list[tuple] = list(rows) if rows is not None else []
        self._positions = {c: i for i, c in enumerate(self.columns)}

    @property
    def positions(self) -> dict[str, int]:
        return self._positions

    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise UnknownColumnError(
                f"column {column!r} not in {self.columns}"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_set(self) -> frozenset[tuple]:
        return frozenset(self.rows)

    def distinct(self) -> "Relation":
        seen: set[tuple] = set()
        out: list[tuple] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.columns, out)

    def filtered(self, keep: Callable[[tuple], bool]) -> "Relation":
        return Relation(self.columns, [r for r in self.rows if keep(r)])

    def pretty(self, limit: int = 20) -> str:
        """Aligned table rendering (at most *limit* rows, sorted)."""
        from ..storage.table import sort_rows

        shown = sort_rows(self.rows)[:limit]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        rule = "  ".join("-" * w for w in widths)
        body = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in cells
        ]
        lines = [header, rule] + body
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Relation({self.columns}, {len(self.rows)} rows)"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
