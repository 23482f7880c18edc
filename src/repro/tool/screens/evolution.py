"""Schema Evolution Screen: apply typed edits with a repair-scope report.

A component schema rarely stays frozen once analysis has begun — the
paper's DDA discovers missing attributes and misplaced relationships
*while* resolving assertions.  This screen feeds a typed
:class:`~repro.evolution.SchemaEdit` (entered as its JSON payload)
through :meth:`ToolSession.apply_edit
<repro.tool.session.ToolSession.apply_edit>` and reports exactly how far
the localized repair reached: OCS cells recomputed, assertions
retracted, closure pairs re-propagated, clusters changed by the
re-integration, federation plans invalidated.
"""

from __future__ import annotations

import json

from repro.errors import ToolError
from repro.evolution import EDIT_KINDS, edit_from_payload
from repro.tool.screens.base import POP, Screen
from repro.tool.session import ToolSession


class EvolutionScreen(Screen):
    """Screen 9 bis: edit a component schema, repairs propagating live."""

    header = "SCHEMA EVOLUTION"
    subheader = "Component Schema Edit Screen"

    def __init__(self) -> None:
        self._last = None  # the latest EditOutcome, for the report pane

    def body(self, session: ToolSession) -> list[str]:
        lines = [f"{'Schema':<20}{'# structures':<14}"]
        for index, (name, schema) in enumerate(
            session.schemas.items(), start=1
        ):
            lines.append(f"{index}> {name:<17}{len(list(schema)):<14}")
        if not session.schemas:
            lines.append("   (no schemas defined)")
        lines.append("")
        lines.append("Edit kinds: " + ", ".join(sorted(EDIT_KINDS)))
        if self._last is not None:
            scope = self._last.scope
            lines.append("")
            lines.append(
                f"Last edit: {self._last.edit.describe()}"
                + (" [destructive]" if self._last.destructive else "")
            )
            lines.append(f"Repair scope: {scope.summary()}")
            for assertion in self._last.retracted:
                lines.append(
                    f"  retracted: {assertion.first} "
                    f"{assertion.kind.name} {assertion.second}"
                )
        return lines

    def prompt(self, session: ToolSession) -> str:
        return (
            'Choose: (A)pply <schema> <edit-json>  e.g. A sc1 '
            '{"kind": "rename_attribute", ...}  (Z)undo  (Y)redo  (E)xit :'
        )

    def handle(self, line: str, session: ToolSession):
        choice, args = self.parse_choice(line)
        if self.time_travel(choice, session):
            self._last = None  # the report no longer matches the state
            return None
        if choice == "e":
            return POP
        if choice == "a":
            if len(args) < 2:
                raise ToolError("usage: A <schema> <edit-json>")
            schema_name = args[0]
            raw = line.strip()[1:].strip()[len(schema_name) :].strip()
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise ToolError(f"bad edit JSON: {exc}") from exc
            edit = edit_from_payload(payload)
            self._last = session.apply_edit(schema_name, edit)
            return None
        raise ToolError(f"unknown choice {line!r}")


__all__ = ["EvolutionScreen"]
