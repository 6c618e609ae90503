"""Formatting and driver for the experiment harness.

The benchmarks and the CLI share these helpers: each experiment module
returns plain dataclass rows; :func:`format_table` renders any sequence of
row dataclasses (or dicts) as an aligned text table, and :func:`run_all`
produces the complete report that EXPERIMENTS.md is derived from.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.experiments.broadcast_sweep import broadcast_sweep_table
from repro.experiments.fig4 import fig4_table
from repro.experiments.fig5 import fig5_table
from repro.experiments.fig6 import fig6_table
from repro.experiments.fig8 import fig8_table
from repro.experiments.robustness import ROBUSTNESS_COLUMNS, robustness_table
from repro.experiments.sandwich import SANDWICH_COLUMNS, sandwich_table
from repro.experiments.search_gaps import SEARCH_GAP_COLUMNS, search_gaps_table
from repro.experiments.structure import render_matrix, structure_report

__all__ = [
    "format_table",
    "format_value",
    "run_all",
    "FIG4_COLUMNS",
    "FIG5_COLUMNS",
    "FIG6_COLUMNS",
    "FIG8_COLUMNS",
    "BROADCAST_COLUMNS",
    "SEARCH_GAP_COLUMNS",
    "ROBUSTNESS_COLUMNS",
]

#: Column order of the Fig. 4/5/6/8 tables, shared by run_all and the CLI's
#: ``fig4``/``fig5``/``fig6``/``fig8`` commands.
FIG4_COLUMNS = ("period_label", "lambda_star", "coefficient", "paper_coefficient", "deviation")
FIG5_COLUMNS = (
    "family",
    "degree",
    "period",
    "coefficient",
    "general_coefficient",
    "improves_on_general",
    "paper_coefficient",
)
FIG6_COLUMNS = (
    "family",
    "degree",
    "coefficient",
    "general_coefficient",
    "diameter_coefficient",
    "improves_on_general",
    "paper_coefficient",
)
FIG8_COLUMNS = (
    "family",
    "degree",
    "period_label",
    "coefficient",
    "general_coefficient",
    "improves_on_general",
)

#: Column order of the broadcast-sweep table in run_all; the CLI's
#: ``broadcast`` command appends the resolved ``engine``.
BROADCAST_COLUMNS = (
    "family",
    "n",
    "mode",
    "period",
    "gossip_rounds",
    "broadcast_min",
    "broadcast_max",
    "broadcast_mean",
    "max_matches_gossip",
)


def format_value(value: object, *, digits: int = 4) -> str:
    """Render one cell: floats to ``digits`` decimals, None as '-', rest via str."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _row_mapping(row: object) -> Mapping[str, object]:
    if is_dataclass(row) and not isinstance(row, type):
        data = asdict(row)
        # Include computed properties that the dataclasses expose.
        for name in dir(type(row)):
            if name.startswith("_") or name in data:
                continue
            attribute = getattr(type(row), name, None)
            if isinstance(attribute, property):
                data[name] = getattr(row, name)
        return data
    if isinstance(row, Mapping):
        return row
    raise TypeError(f"cannot format row of type {type(row)!r}")


def format_table(
    rows: Sequence[object],
    columns: Iterable[str] | None = None,
    *,
    digits: int = 4,
) -> str:
    """Aligned text table from dataclass or mapping rows."""
    if not rows:
        return "(empty table)"
    mappings = [_row_mapping(row) for row in rows]
    if columns is None:
        columns = list(mappings[0].keys())
    columns = list(columns)
    rendered = [[format_value(m.get(c), digits=digits) for c in columns] for m in mappings]
    widths = [
        max(len(column), *(len(r[i]) for r in rendered)) for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rendered
    ]
    return "\n".join([header, separator, *body])


def run_all(*, include_sandwich: bool = True, engine: str = "auto") -> str:
    """Run every experiment and return the combined text report.

    ``engine`` selects the simulation backend for the simulation-backed
    sections (the broadcast sweep and the sandwich's measured gossip times);
    the lower-bound sections are pure arithmetic and take no engine.
    """
    sections: list[str] = []

    sections.append("== FIG4: general systolic lower bound ==")
    sections.append(format_table(fig4_table(), FIG4_COLUMNS))

    sections.append("\n== FIG5: separator-refined systolic bounds (half-duplex) ==")
    sections.append(format_table(fig5_table(), FIG5_COLUMNS))

    sections.append("\n== FIG6: non-systolic bounds (half-duplex) ==")
    sections.append(format_table(fig6_table(), FIG6_COLUMNS))

    sections.append("\n== FIG8: full-duplex bounds ==")
    sections.append(format_table(fig8_table(), FIG8_COLUMNS))

    sections.append("\n== FIG1-3/7: delay-matrix structure ==")
    report = structure_report()
    sections.append(f"local protocol: {report.local_protocol.activation_word()}  λ = {report.lam}")
    sections.append("Mx(λ):")
    sections.append(render_matrix(report.mx))
    sections.append("Nx(λ):")
    sections.append(render_matrix(report.nx))
    sections.append("Ox(λ):")
    sections.append(render_matrix(report.ox))
    sections.append(f"Lemma 4.2 check: {report.lemma42}")
    sections.append(f"Lemma 4.3 check: {report.lemma43}")
    sections.append(f"Lemma 6.1 check: {report.lemma61}")

    sections.append("\n== BROADCAST: batched multi-source broadcast sweep ==")
    sections.append(
        format_table(broadcast_sweep_table(engine=engine), BROADCAST_COLUMNS)
    )

    sections.append("\n== SEARCH: synthesized schedules vs. certified lower bounds ==")
    sections.append(
        format_table(search_gaps_table(engine=engine), SEARCH_GAP_COLUMNS)
    )

    sections.append("\n== ROBUSTNESS: fault tolerance of nominal vs robust schedules ==")
    sections.append(
        format_table(robustness_table(engine=engine), ROBUSTNESS_COLUMNS)
    )

    if include_sandwich:
        sections.append("\n== SANDWICH: certified lower bounds vs. measured gossip times ==")
        sections.append(format_table(sandwich_table(engine=engine), SANDWICH_COLUMNS))

    return "\n".join(sections)
