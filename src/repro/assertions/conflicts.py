"""Conflict reports and the Screen 9 rendering.

When a newly specified assertion contradicts the previously specified or
derived assertions, the tool shows the Assertion Conflict Resolution Screen:
the conflicting pair with its current (possibly derived) assertion, the new
assertion, and — for a derived current assertion — "all the relevant
assertions used in the derivation".  :class:`ConflictReport` carries exactly
that information and :func:`render_screen9` lays it out like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import Relation, Source
from repro.ecr.schema import ObjectRef

_MENU = """\
Assertions:
  1 - OB_CL_name_1 'equals' OB_CL_name_2
  2 - OB_CL_name_1 'contained in' OB_CL_name_2
  3 - OB_CL_name_1 'contains' OB_CL_name_2
  4 - OB_CL_name_1 and OB_CL_name_2 are disjoint but integrable
  5 - OB_CL_name_1 and OB_CL_name_2 may be integratable
  0 - OB_CL_name_1 and OB_CL_name_2 are disjoint & non-integratable"""


@dataclass(frozen=True)
class ConflictReport:
    """Explanation of why a new assertion was rejected.

    Attributes
    ----------
    new:
        The assertion the DDA just tried to specify.
    subject_first, subject_second:
        The pair on which the contradiction materialised.  Usually the new
        assertion's own pair; when propagation emptied a *different* pair,
        that pair instead.
    current:
        The existing (specified or derived) assertion on the subject pair,
        if the pair had been narrowed to a single relation.
    feasible:
        The feasible relation set the new assertion violated (empty when
        propagation produced the contradiction).
    chain:
        The specified/implicit assertions underlying the subject pair's
        current state — the derivation lines of Screen 9.
    facts:
        Every specified/implicit assertion committed when the conflict
        arose, in specification order.  The chain only walks the subject
        pair's supports, which can miss facts a propagation conflict
        consumed; minimal-conflict computation needs the full log.
    """

    new: Assertion
    subject_first: ObjectRef
    subject_second: ObjectRef
    current: Assertion | None
    feasible: frozenset[Relation]
    chain: list[Assertion] = field(default_factory=list)
    facts: tuple[Assertion, ...] = field(default=())

    @property
    def is_propagation_conflict(self) -> bool:
        """Whether the clash surfaced on a pair other than the new one's."""
        return self.new.pair != (
            self.subject_first,
            self.subject_second,
        ) and self.new.pair != (self.subject_second, self.subject_first)

    def suggested_repairs(self) -> list[str]:
        """Human-readable repair options, Screen 9 style.

        The paper: "the DDA may change earlier assertion in line 3
        (possibly to a '0' or '5')".  We suggest withdrawing the new
        assertion or retracting/changing each DDA assertion in the chain
        (implicit assertions come from the schema itself and cannot be
        changed without editing the schema).
        """
        repairs = [f"withdraw the new assertion {self.new.describe()}"]
        for assertion in self.chain:
            if assertion.source is Source.DDA:
                repairs.append(
                    f"retract or change {assertion.describe()} "
                    f"(currently code {assertion.kind.code})"
                )
            else:
                repairs.append(
                    f"revise the schema structure behind {assertion.describe()}"
                )
        return repairs

    def minimal_conflict(self) -> tuple[Assertion, ...]:
        """The minimal set of existing facts clashing with the new assertion.

        Runs QuickXplain (:mod:`repro.solver.explain`) over the committed
        fact log with the rejected assertion as unretractable background:
        asserting the returned facts plus the new one reproduces the
        contradiction, and retracting any single one of them would let
        the new assertion through.  Computed lazily and cached; returns
        ``()`` when no fact log was captured (legacy reports).
        """
        cached = getattr(self, "_minimal_conflict", None)
        if cached is not None:
            return cached
        if not self.facts:
            result: tuple[Assertion, ...] = ()
        else:
            from repro.errors import AssertionSpecError
            from repro.solver.explain import minimal_conflict

            try:
                result = minimal_conflict(self.facts, background=[self.new])
            except AssertionSpecError:
                result = ()  # e.g. the feasibility check pre-empted propagation
        object.__setattr__(self, "_minimal_conflict", result)
        return result

    def to_wire(self) -> dict:
        """JSON-friendly report shape for the service's 409 payloads."""
        return {
            "new": self.new.to_wire(),
            "subject": {
                "first": str(self.subject_first),
                "second": str(self.subject_second),
            },
            "current": None if self.current is None else self.current.to_wire(),
            "feasible": sorted(rel.value for rel in self.feasible),
            "chain": [assertion.to_wire() for assertion in self.chain],
            "conflict_set": [
                assertion.to_wire() for assertion in self.minimal_conflict()
            ],
            "repairs": self.suggested_repairs(),
        }

    def __str__(self) -> str:
        subject = f"{self.subject_first} / {self.subject_second}"
        if self.current is not None:
            held = (
                f"current assertion {self.current.kind.code}"
                f" ({self.current.source})"
            )
        elif self.feasible:
            allowed = ", ".join(sorted(rel.value for rel in self.feasible))
            held = f"feasible relations {{{allowed}}}"
        else:
            held = "no relation remains feasible"
        return (
            f"new assertion {self.new.kind.code} on {self.new.first} / "
            f"{self.new.second} conflicts with {subject}: {held}"
        )


def render_screen9(report: ConflictReport) -> str:
    """Render a conflict in the layout of the paper's Screen 9."""
    width = 96
    lines = [
        "ASSERTION SPECIFICATION".center(width),
        "< Assertion Conflict Resolution Screen >".center(width),
        "",
        f"{'SCHEMA_NAME1.OBJ_CLASS1':<28}{'SCHEMA_NAME2.OBJ_CLASS2':<28}"
        f"{'CURRENT':>10}{'NEW':>22}",
        f"{'':<28}{'':<28}{'ASSERTION':>10}{'ASSERTION':>22}",
    ]
    current_code = "?" if report.current is None else str(report.current.kind.code)
    derived_tag = (
        "<derived>(CONFLICT)"
        if report.current is not None and report.current.source is Source.DERIVED
        else "(CONFLICT)"
    )
    lines.append(
        f"{str(report.subject_first):<28}{str(report.subject_second):<28}"
        f"{current_code:>10}{derived_tag:>22}"
    )
    lines.append(
        f"{str(report.new.first):<28}{str(report.new.second):<28}"
        f"{report.new.kind.code:>10}{'<new>(CONFLICT)':>22}"
    )
    for assertion in report.chain:
        lines.append(
            f"{str(assertion.first):<28}{str(assertion.second):<28}"
            f"{assertion.kind.code:>10}"
        )
    lines.append("")
    lines.append(_MENU)
    minimal = report.minimal_conflict()
    if minimal:
        lines.append("")
        lines.append("Minimal conflict set (retract any one to resolve):")
        for index, assertion in enumerate(minimal, start=1):
            lines.append(
                f"  {index} - {assertion.describe()} "
                f"(code {assertion.kind.code}, {assertion.source})"
            )
    lines.append("")
    lines.append("Suggested repairs:")
    for repair in report.suggested_repairs():
        lines.append(f"  - {repair}")
    return "\n".join(lines) + "\n"
