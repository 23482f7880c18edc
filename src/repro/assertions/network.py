"""The assertion constraint network (the Entity Assertion matrix, generalised).

The paper stores assertions in an Entity Assertion matrix whose element
``(i, j)`` is the assertion between object classes i and j; some elements
are specified by the DDA, the rest "may be derived using rules of transitive
composition", and every new assertion is checked for consistency against the
previously specified or derived ones.

We implement that as a qualitative constraint network: every unordered pair
of object classes carries the *feasible set* of domain relations between
them.  A DDA assertion narrows a pair to a single relation; path consistency
(composition along every triangle) narrows other pairs; a pair narrowed to a
singleton becomes a **derived assertion** with a recorded support chain; a
pair narrowed to the empty set is a **conflict**, reported with the chain of
underlying assertions exactly as the Assertion Conflict Resolution Screen
(Screen 9) does.

Internally the matrix is literal.  :meth:`AssertionNetwork.add_object`
interns each object class to a dense int id that it keeps for the
network's lifetime (a removed class that comes back gets its old id).
Feasible sets are 5-bit relation masks
(:data:`~repro.assertions.composition.RELATION_BIT`) held in one
``bytearray`` row per node, and every change writes both ``R(i, j)`` and
its converse ``R(j, i)``, so path consistency reads masks and composes
them through tables generated from the RCC-5 table without building a
set, computing a converse or hashing an :class:`ObjectRef`.  It works a
row at a time: revising a pair (i, j) against every third object is two
``bytes.translate`` calls through
:data:`~repro.assertions.composition.COMPOSE_TRANSLATE` and two ANDs of
whole rows read as ints, and only the columns that changed go through
Python, in live order, so supports, failures and step counts are those
of a loop over the third objects (see :meth:`AssertionNetwork._propagate`).
Beside each mask row is a row of **vias** (an ``array('I')``): cell
``(i, j)`` holds the supports of the pair, each as the third object it
was narrowed through and which end it starts at, in two bytes.  The low
half is the support of the last narrowing and the high half the
distinct support before it; cells are written in both orientations, as
the masks are.  The few pairs narrowed by more than two distinct
supports since their last reset keep the whole set in a small overflow
map, and the undo log is keyed by id pairs.
Frozensets and ``ObjectRef`` pairs appear only at the boundary:
:meth:`~AssertionNetwork.feasible`,
:meth:`~AssertionNetwork.feasible_table`, :attr:`Assertion.supports`,
:meth:`~AssertionNetwork.explain` and :class:`ConflictReport`.

The network maintains itself **incrementally**, matching the tool's
interactive loop where each DDA action touches one edge:

* :meth:`specify` propagates only from the changed edge's frontier, mutating
  the tables in place with an undo log (no whole-network copies); a conflict
  rolls the log back, leaving the network exactly as before.
* Every narrowing goes through :meth:`_push`: :meth:`specify` and
  :meth:`trial` push one fact, :func:`repro.solver.propagate` a fact list
  onto a fresh network, and :func:`repro.solver.minimal_conflict` nests
  one push per probe on one network, each rolled back by its undo log.
* :meth:`retract` / :meth:`respecify` repair only the **affected
  neighborhood**: the via rows and the overflow record every triangle
  that narrowed a pair since its last reset, so the pairs that depend
  on an edge (a, b) are the cells of row a with a support through b,
  the cells of row b with one through a, and the overflow's supports
  with (a, b) as a leg.  The dependent closure of the retracted edge is reset, and path
  consistency is re-run from the constrained frontier of that region —
  the rest of the network is untouched.  (Construct the network with
  ``incremental=False`` to force the old full-rebuild behaviour; the
  benchmarks use it as the baseline.)
* Derived assertions are not stored: a pair is derived while its mask
  is one relation and it carries no specified assertion, and its
  :class:`Assertion` is built from that mask and the pair's last support
  when it is read.  A singleton mask can only narrow to empty, which
  rolls back, so what a read reports is what the derivation recorded.

Work done either way is tallied in :attr:`counters`
(:class:`~repro.obs.metrics.AnalysisCounters`).
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import deque
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.assertions.assertion import Assertion, Pair, ordered_pair
from repro.assertions.composition import (
    ALL_MASK,
    COMPOSE_MASK,
    COMPOSE_TRANSLATE,
    CONVERSE_MASK,
    MASK_RELATIONS,
    RELATION_BIT,
)
from repro.assertions.conflicts import ConflictReport
from repro.assertions.kinds import AssertionKind, Relation, Source, derived_kind
from repro.ecr.coerce import coerce_object_ref
from repro.ecr.schema import ObjectRef, Schema
from repro.errors import AssertionSpecError, ConflictError
from repro.kernel.events import NO_CHANGE
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.kernel.bus import EventEmitter

#: An unordered pair of node ids, lower id first.
_Key = tuple[int, int]

#: An oriented support over node ids: R(x, y) was narrowed by composing
#: R(x, via) and R(via, y).
_Support = tuple[int, int, int]

#: Sentinel for "no entry existed before this mutation" in the undo log.
_ABSENT = object()

#: Most nodes a network holds: a support code, ``(via + 1) << 1 | 1``,
#: names node ids up to 32,766 in two bytes.
_MAX_NODES = 32767

#: The half of a via cell that holds the last narrowing's support.
_LAST = 0xFFFF

#: A non-zero byte: the changed columns of a row diff.
_NONZERO = re.compile(rb"[^\x00]")

#: ``bytes.translate`` table marking (1) the masks that are a single
#: relation bit, and no other (0): the derived pairs, when unspecified.
_SINGLETON_TRANSLATE = bytes(
    mask in {RELATION_BIT[relation] for relation in Relation}
    for mask in range(256)
)

#: ``bytes.translate`` table marking (1) the masks that are a single
#: ``equals``, ``contained in`` or ``contains`` bit, and no other (0).
_CONTAINMENT_TRANSLATE = bytes(
    mask in {RELATION_BIT[Relation.EQ], RELATION_BIT[Relation.PP],
             RELATION_BIT[Relation.PPI]}
    for mask in range(256)
)


def _key(x: int, y: int) -> _Key:
    return (x, y) if x < y else (y, x)


def _code(via: int, start: bool) -> int:
    """A support's two-byte code in a via cell: its via, and whether it
    starts at the row's node (else at the column's); never 0."""
    return (via + 1) << 1 | start


def _decoded(x: int, y: int, code: int) -> _Support:
    """The oriented support coded ``code`` in cell (x, y)."""
    via = (code >> 1) - 1
    return (x, via, y) if code & 1 else (y, via, x)


def _converse_cell(cell: int) -> int:
    """Cell (x, y) as cell (y, x) holds it: each support's start flipped."""
    return cell ^ (cell and 1) ^ (cell > _LAST) << 16


def _columns_through(row: array, via: int) -> Iterator[int]:
    """The columns of a via row where either support passes through ``via``.

    Each half of a cell is one aligned two-byte code, so a match at an
    even byte offset is a code and an odd one straddles two.
    """
    data = row.tobytes()
    for start in (False, True):
        pattern = _code(via, start).to_bytes(2, sys.byteorder)
        at = data.find(pattern)
        while at >= 0:
            if at & 1:
                at = data.find(pattern, at + 1)
            else:
                yield at >> 2
                at = data.find(pattern, at + 2)


def _pair_order(assertion: Assertion) -> tuple[str, str, str, str]:
    """Sort key of a derived assertion, stored in pair order (first <
    second): its ``ObjectRef`` order, compared as plain strings."""
    first, second = assertion.first, assertion.second
    return (first.schema, first.object_name, second.schema, second.object_name)


class _UndoLog:
    """Prior state of every pair touched by one propagation run.

    Propagation mutates the network tables in place; on conflict the log
    restores them, which is what makes trial-specification cheap.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: key -> (old mask, old via cell, old overflow set or _ABSENT)
        self.entries: dict[_Key, tuple[int, int, object]] = {}

    def remember(self, network: "AssertionNetwork", key: _Key) -> None:
        if key in self.entries:
            return
        x, y = key
        extra = network._extra.get(key)
        self.entries[key] = (
            network._rows[x][y],
            network._vias[x][y],
            _ABSENT if extra is None else set(extra),
        )

    def rollback(self, network: "AssertionNetwork") -> None:
        vias = network._vias
        for key, (mask, cell, extra) in self.entries.items():
            x, y = key
            network._put(x, y, mask)
            vias[x][y] = cell
            vias[y][x] = _converse_cell(cell)
            if extra is _ABSENT:
                network._extra.pop(key, None)
            else:
                network._extra[key] = extra  # type: ignore[assignment]


class AssertionNetwork:
    """Assertions over a set of object classes, with derivation and checking."""

    #: the undo log the network's own pushes and repairs record into
    _undo_log = _UndoLog

    def __init__(
        self,
        *,
        counters: AnalysisCounters | None = None,
        incremental: bool = True,
    ) -> None:
        #: object class -> node id (kept for the network's lifetime)
        self._ids: dict[ObjectRef, int] = {}
        #: node id -> object class
        self._refs: list[ObjectRef] = []
        #: ids of the registered nodes, in registration order
        self._live: dict[int, None] = {}
        #: node id -> rank in ``_live`` (``None`` until next needed)
        self._ranks: list[int] | None = None
        #: ``_rows[i][j]`` is the mask of R(i, j); ALL_MASK when unconstrained
        self._rows: list[bytearray] = []
        #: pair -> the specified (DDA/implicit) assertion
        self._specified: dict[_Key, Assertion] = {}
        #: insertion-ordered log of specified assertions (for retraction rebuilds)
        self._log: list[Assertion] = []
        #: ``_vias[i][j]`` codes (:func:`_code`) R(i, j)'s last support
        #: in its low half and the distinct one before in its high half;
        #: 0 for none
        self._vias: list[array] = []
        #: pair -> every support that narrowed it since it was last reset,
        #: kept only for pairs narrowed by more than two distinct supports
        self._extra: dict[_Key, set[_Support]] = {}
        #: shared work counters (an :class:`AnalysisSession` injects its own)
        self.counters = counters if counters is not None else AnalysisCounters()
        #: whether retract/respecify repair incrementally (False = rebuild)
        self.incremental = incremental
        #: kernel-bus emitter (an :class:`AnalysisSession` binds one);
        #: commits every specify/retract, plus conflicts and rejections,
        #: as ``<scope>.*`` events for the audit log and undo/redo.
        self.events: "EventEmitter | None" = None

    # -- membership ------------------------------------------------------------

    def add_object(self, ref: ObjectRef | str) -> None:
        """Register an object class as a network node (idempotent)."""
        self.add_objects((ref,))

    def add_objects(self, refs: Iterable[ObjectRef | str]) -> None:
        """Register object classes as network nodes, in order (idempotent).

        Each existing mask and via row grows once, by all the new ids
        together: one ``extend`` per row however many objects the batch
        registers.  A batch that would pass the via cells' node limit is
        refused before anything changes.
        """
        refs = [coerce_object_ref(ref) for ref in refs]
        known = len(self._refs)
        self._check_node_limit(
            known + len({ref for ref in refs if ref not in self._ids})
        )
        for ref in refs:
            node = self._ids.get(ref)
            if node is None:
                node = len(self._refs)
                self._ids[ref] = node
                self._refs.append(ref)
            if node not in self._live:
                self._live[node] = None
                self._ranks = None
        size = len(self._refs)
        if size == known:
            return
        padding = bytearray([ALL_MASK]) * (size - known)
        for row in self._rows:
            row.extend(padding)
        self._rows.extend(
            bytearray([ALL_MASK]) * size for _ in range(known, size)
        )
        blank = array("I", bytes(4 * size))
        no_vias = blank[known:]
        for vias in self._vias:
            vias.extend(no_vias)
        self._vias.extend(blank[:] for _ in range(known, size))

    @staticmethod
    def _check_node_limit(size: int) -> None:
        """Refuse a network of more nodes than a via cell can name."""
        if size > _MAX_NODES:
            raise AssertionSpecError(
                f"a network holds at most {_MAX_NODES} object classes, "
                f"not {size}"
            )

    def objects(self) -> list[ObjectRef]:
        """All registered object classes, in registration order."""
        return [self._refs[node] for node in self._live]

    def remove_object(self, ref: ObjectRef | str) -> list[Assertion]:
        """Drop a node from the network, repairing only its neighborhood.

        Every specified assertion involving the node (DDA and implicit) is
        retracted — each retraction resets and re-revises just the
        dependent closure of that edge via :meth:`retract`'s incremental
        repair.  Because composition with a universal edge is universal,
        every non-universal pair at the node descends from one of those
        specified assertions, so after the retractions the node carries no
        constraints and can be detached without touching the rest of the
        network.  Returns the specified assertions that were retracted (in
        specification order) so callers can report repair scope or rebuild
        an inverse.

        Event emission is suspended: removal is internal repair driven by a
        schema edit, which is itself the recorded event.
        """
        ref = coerce_object_ref(ref)
        node = self._ids.get(ref)
        if node is None or node not in self._live:
            return []
        retracted = [
            assertion for assertion in self._log if ref in assertion.pair
        ]
        suspended = self.events.muted() if self.events is not None else nullcontext()
        with suspended:
            with span("evolution.repair.assertions", counters=self.counters):
                for assertion in retracted:
                    self.retract(assertion.first, assertion.second)
        del self._live[node]
        self._ranks = None
        return retracted

    def seed_schema(
        self, schema: Schema, entity_disjointness: bool = False
    ) -> list[Assertion]:
        """Register a schema's object classes and its implicit assertions.

        Every *single-parent* category is *contained in* its parent — the
        schema says so itself, no DDA input needed (this is how Screen 9's
        ``sc4.Grad_student`` ⊆ ``sc4.Student`` line arises).  A category
        over several parents is a subset of their *union*, which the
        relation algebra cannot state about any one parent, so union
        categories contribute no implicit assertion.  With
        ``entity_disjointness`` set, the model's rule that entity sets of
        one schema are disjoint is also seeded; the paper's tool does not
        assume it, so it is off by default.

        Returns the implicit assertions added.
        """
        self.add_objects(
            ObjectRef(schema.name, structure.name)
            for structure in schema.object_classes()
        )
        added: list[Assertion] = []
        for category in schema.categories():
            if len(category.parents) != 1:
                continue  # union category: subset of the union only
            child = ObjectRef(schema.name, category.name)
            added.append(
                self.specify(
                    child,
                    ObjectRef(schema.name, category.parents[0]),
                    AssertionKind.CONTAINED_IN,
                    source=Source.IMPLICIT,
                    note="category structure",
                )
            )
        if entity_disjointness:
            entities = [
                ObjectRef(schema.name, entity.name)
                for entity in schema.entity_sets()
            ]
            for index, first in enumerate(entities):
                for second in entities[index + 1 :]:
                    added.append(
                        self.specify(
                            first,
                            second,
                            AssertionKind.DISJOINT_NONINTEGRABLE,
                            source=Source.IMPLICIT,
                            note="entity sets are disjoint",
                        )
                    )
        return added

    # -- feasible-set access ---------------------------------------------------

    def feasible(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> frozenset[Relation]:
        """Feasible relations between two objects, oriented first→second."""
        x = self._node(coerce_object_ref(first))
        y = self._node(coerce_object_ref(second))
        if x == y:
            return frozenset({Relation.EQ})
        return MASK_RELATIONS[self._rows[x][y]]

    def _node(self, ref: ObjectRef) -> int:
        """The id of a registered object class."""
        node = self._ids.get(ref)
        if node is None or node not in self._live:
            raise AssertionSpecError(f"object {ref} is not in the network")
        return node

    def _pair_nodes(
        self, first: ObjectRef, second: ObjectRef
    ) -> tuple[int, int]:
        """The ids of two distinct registered object classes."""
        x = self._node(first)
        y = self._node(second)
        if x == y:
            raise AssertionSpecError(f"cannot assert {first} against itself")
        return x, y

    def _key_of(self, first: ObjectRef, second: ObjectRef) -> _Key | None:
        """The pair's key, or ``None`` (never a key) for an unknown object."""
        x = self._ids.get(first)
        y = self._ids.get(second)
        if x is None or y is None:
            return None
        return _key(x, y)

    def _specified_on(
        self, first: ObjectRef, second: ObjectRef
    ) -> Assertion | None:
        key = self._key_of(first, second)
        return None if key is None else self._specified.get(key)

    def _put(self, x: int, y: int, mask: int) -> None:
        """Set R(x, y) and its converse R(y, x)."""
        self._rows[x][y] = mask
        self._rows[y][x] = CONVERSE_MASK[mask]

    # -- specification ------------------------------------------------------------

    def specify(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        source: Source = Source.DDA,
        note: str = "",
    ) -> Assertion:
        """Record an assertion between two objects, deriving and checking.

        Raises
        ------
        ConflictError
            If the assertion contradicts previously specified or derived
            assertions; the attached :class:`ConflictReport` carries the
            derivation chain for Screen 9.
        AssertionSpecError
            If the pair already carries a *different* specified assertion
            (use :meth:`respecify` for the review-and-modify flow), or the
            objects are unknown/identical.
        """
        if isinstance(kind, int):
            kind = AssertionKind.from_code(kind)
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        try:
            with span("phase3.closure.specify", counters=self.counters):
                result, restated = self._specify_checked(
                    first, second, kind, source, note
                )
        except ConflictError:
            self._emit_assertion("conflict", first, second, kind, source, note)
            raise
        except AssertionSpecError:
            self._emit_assertion("rejected", first, second, kind, source, note)
            raise
        # re-stating the existing assertion: history records the attempt,
        # but there is nothing to undo
        self._emit_assertion(
            "specify", first, second, kind, source, note, undoable=not restated
        )
        return result

    def _emit_assertion(
        self,
        action: str,
        first: ObjectRef,
        second: ObjectRef,
        kind: AssertionKind,
        source: Source,
        note: str,
        *,
        undoable: bool = False,
    ) -> None:
        """Publish one assertion event; an ``undoable`` one carries the
        pair's retract as its inverse, any other :data:`NO_CHANGE`."""
        if self.events is None:
            return
        first_name, second_name = str(first), str(second)
        self.events.emit(
            action,
            {
                "first": first_name,
                "second": second_name,
                "kind": kind.code,
                "source": source.name,
                "note": note,
            },
            inverse=(
                self.events.scope,
                "retract",
                {"first": first_name, "second": second_name},
            )
            if undoable
            else NO_CHANGE,
        )

    def _specify_checked(
        self,
        first: ObjectRef,
        second: ObjectRef,
        kind: AssertionKind,
        source: Source,
        note: str,
    ) -> tuple[Assertion, bool]:
        """The specified assertion, and whether it was already there."""
        x, y = self._pair_nodes(first, second)
        key = _key(x, y)
        existing = self._specified.get(key)
        new = Assertion(first, second, kind, source, note=note)
        if existing is not None:
            oriented = existing.oriented(first, second)
            if oriented.kind is kind:
                return existing, True  # re-stating the same assertion
            raise AssertionSpecError(
                f"pair {first}/{second} already carries "
                f"assertion {oriented.kind.code}; retract or respecify it"
            )
        current = self._rows[x][y]
        bit = RELATION_BIT[kind.relation]
        if not current & bit:
            raise ConflictError(self._report_for(new, MASK_RELATIONS[current]))
        undo = self._undo_log()
        failed_pair = self._push(undo, ((x, y, bit),))
        if failed_pair is not None:
            # Restore the pre-trial network first so the Screen 9 report is
            # assembled from the committed state, as before.
            undo.rollback(self)
            raise ConflictError(
                self._report_for(new, frozenset(), failed_pair=failed_pair)
            )
        self._specified[key] = new
        self._log.append(new)
        return new, False

    def trial(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
    ) -> tuple[Assertion, ...] | None:
        """What specifying ``kind`` on a pair would do, without doing it.

        Pushes the assertion through :meth:`_push` exactly as
        :meth:`specify` does, then always rolls the push back: the masks,
        supports and support index are left as they were, no event is
        emitted, and the run's steps are counted in
        ``counters.solver_propagation_steps``, never in
        ``propagation_steps``.  Returns ``None`` when the assertion would
        be rejected, else the pairs it would newly pin to one relation
        (specified pairs and the asserted pair itself excepted) as
        derived assertions without supports, sorted by pair.

        The network holds the path-consistency closure of its specified
        assertions, and that closure is unique, so the answer is the one
        a from-scratch closure of every specified fact plus this one
        gives (see :func:`repro.solver.propagate`).
        """
        if isinstance(kind, int):
            kind = AssertionKind.from_code(kind)
        x, y = self._pair_nodes(
            coerce_object_ref(first), coerce_object_ref(second)
        )
        bit = RELATION_BIT[kind.relation]
        counters = self.counters
        committed_steps = counters.propagation_steps
        undo = self._undo_log()
        try:
            if self._push(undo, ((x, y, bit),)) is not None:
                return None
            return self._newly_pinned(undo)
        finally:
            undo.rollback(self)
            counters.solver_propagation_steps += (
                counters.propagation_steps - committed_steps
            )
            counters.propagation_steps = committed_steps

    def _newly_pinned(self, undo: _UndoLog) -> tuple[Assertion, ...]:
        """The pairs a successful one-fact push pinned to one relation.

        The push logs the asserted pair first.  Every pair it logged
        after that held more than one relation before: narrowing a
        singleton, and so any specified pair, empties it, and the push
        would have failed.  Sorted by pair.
        """
        rows = self._rows
        _asserted, *narrowed = undo.entries
        pinned = [
            self._derived_at(key, supported=False)
            for key in narrowed
            if _SINGLETON_TRANSLATE[rows[key[0]][key[1]]]
        ]
        pinned.sort(key=_pair_order)
        return tuple(pinned)

    def respecify(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        source: Source = Source.DDA,
        note: str = "",
    ) -> Assertion:
        """Replace the specified assertion on a pair (review-and-modify).

        If the replacement is refused, the pair's previous assertion is
        specified again before the error propagates, so the network holds
        the same assertions as before the call.  The retract, the refusal
        and the restoring specify are all emitted, so history replays to
        that same state.
        """
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        previous = self._specified_on(first, second)
        self.retract(first, second)  # raises when ``previous`` is None
        try:
            return self.specify(first, second, kind, source, note)
        except (ConflictError, AssertionSpecError):
            self.specify(
                previous.first,
                previous.second,
                previous.kind,
                previous.source,
                previous.note,
            )
            raise

    def retract(self, first: ObjectRef | str, second: ObjectRef | str) -> None:
        """Withdraw the specified assertion on a pair and repair the network.

        Derived assertions are recomputed from the remaining specified
        assertions; anything that depended on the retracted one disappears.
        Only the affected neighborhood — pairs whose narrowing chain passes
        through the retracted edge — is recomputed (unless the network was
        built with ``incremental=False``, in which case everything is
        re-propagated from scratch).
        """
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        key = self._key_of(first, second)
        retracted = None if key is None else self._specified.get(key)
        if key is None or retracted is None:
            raise AssertionSpecError(
                f"no specified assertion between {first} and {second}"
            )
        with span("phase3.closure.retract", counters=self.counters):
            del self._specified[key]
            self._log = [a for a in self._log if a is not retracted]
            if self.incremental:
                with span("phase3.closure.repair", counters=self.counters):
                    self._repair_after_retract(key)
            else:
                self._rebuild()
        if self.events is not None:
            self.events.emit(
                "retract",
                {"first": str(first), "second": str(second)},
                inverse=(
                    self.events.scope,
                    "specify",
                    {
                        "first": str(retracted.first),
                        "second": str(retracted.second),
                        "kind": retracted.kind.code,
                        "source": retracted.source.name,
                        "note": retracted.note,
                    },
                ),
            )

    def _repair_after_retract(self, root: _Key) -> None:
        """Reset and re-derive only the pairs that depended on ``root``.

        The via rows and the overflow record, per pair, every triangle
        that narrowed it; :meth:`_dependent_closure` reads them backwards
        from the retracted edge.  That closure is a (conservative)
        superset of everything its constraint could have influenced — those
        pairs are reset to ALL and surviving specified assertions among
        them re-applied.

        Every pair *outside* the closure is already at the post-retract
        fixpoint: its value was derivable without the retracted edge (else
        it would be in the closure), and retraction only loosens, so it
        cannot tighten either.  Repair therefore only needs to re-revise
        the affected pairs against the rest of the network — a work-list
        of affected pairs, each intersected through every third object,
        re-enqueueing affected neighbours of whatever narrows — rather
        than re-running path consistency over the whole touched frontier.
        Removing a constraint cannot introduce a conflict, so this never
        fails.

        The affected set is filled in sorted order, so the order it
        iterates in, and with it the revision order, is fixed by its pairs
        alone, whatever order they were found in; every set here holds id
        pairs, whose iteration order does not depend on the string hash
        seed, so neither does the work done.
        """
        self.counters.closure_incremental_retracts += 1
        affected = set(sorted(self._dependent_closure(root)))
        refs = self._refs
        vias = self._vias
        extra = self._extra
        for key in affected:
            x, y = key
            self._put(x, y, ALL_MASK)
            vias[x][y] = vias[y][x] = 0
            extra.pop(key, None)
        self.counters.closure_pairs_recomputed += len(affected)
        for key in affected:
            survivor = self._specified.get(key)
            if survivor is not None:
                self._put(
                    self._ids[survivor.first],
                    self._ids[survivor.second],
                    RELATION_BIT[survivor.relation],
                )
        undo = self._undo_log()
        neighbours: dict[int, set[_Key]] = {}
        # each pair is revised in its ObjectRef order, so the supports it
        # records, and the explain chains read from them, keep that order
        oriented: dict[_Key, _Key] = {}
        for key in affected:
            neighbours.setdefault(key[0], set()).add(key)
            neighbours.setdefault(key[1], set()).add(key)
            x, y = key
            oriented[key] = (y, x) if refs[y] < refs[x] else key
        rows = self._rows
        live = self._live
        steps = 0
        queue: deque[_Key] = deque(affected)
        queued = set(affected)
        try:
            while queue:
                key = queue.popleft()
                queued.discard(key)
                first, second = oriented[key]
                row_first = rows[first]
                changed = False
                for via in live:
                    if via == first or via == second:
                        continue
                    rel_first_via = row_first[via]
                    rel_via_second = rows[via][second]
                    if rel_first_via == ALL_MASK and rel_via_second == ALL_MASK:
                        continue
                    steps += 1
                    old = row_first[second]
                    new = old & COMPOSE_MASK[rel_first_via][rel_via_second]
                    if new == old:
                        continue
                    self._narrow(undo, first, second, via, new)
                    if not new:  # pragma: no cover - only relaxes
                        undo.rollback(self)
                        self._rebuild()
                        return
                    changed = True
                if changed:
                    for other in neighbours[key[0]] | neighbours[key[1]]:
                        if other != key and other not in queued:
                            queue.append(other)
                            queued.add(other)
        finally:
            self.counters.propagation_steps += steps

    def _dependent_closure(self, root: _Key) -> set[_Key]:
        """``root`` and every pair narrowed through a pair in the set.

        A pair depends on (a, b) when one of its supports has (a, b) as a
        leg: it is a pair (a, k) narrowed through b or a pair (b, k)
        narrowed through a.  Its last two supports are read off the via
        rows (row a's cells through b, row b's through a); any earlier
        ones are in the overflow.
        """
        vias = self._vias
        through: dict[_Key, list[_Key]] = {}
        for narrowed, supports in self._extra.items():
            for x, via, y in supports:
                through.setdefault(_key(x, via), []).append(narrowed)
                through.setdefault(_key(via, y), []).append(narrowed)
        affected = {root}
        stack = [root]
        while stack:
            a, b = key = stack.pop()
            dependents = list(through.get(key, ()))
            dependents.extend(
                _key(a, column) for column in _columns_through(vias[a], b)
            )
            dependents.extend(
                _key(b, column) for column in _columns_through(vias[b], a)
            )
            for dependent in dependents:
                if dependent not in affected:
                    affected.add(dependent)
                    stack.append(dependent)
        return affected

    def _rebuild(self) -> None:
        """Full re-propagation from the specified log (the baseline path)."""
        self.counters.closure_full_rebuilds += 1
        remaining = list(self._log)
        size = len(self._refs)
        self._rows = [bytearray([ALL_MASK]) * size for _ in range(size)]
        blank = array("I", bytes(4 * size))
        self._vias = [blank[:] for _ in range(size)]
        self._extra = {}
        self._specified = {}
        self._log = []
        # Suspend event emission: re-specifying the surviving log is
        # internal repair, not new DDA input, and must not be recorded twice.
        suspended = self.events.muted() if self.events is not None else nullcontext()
        with suspended:
            with span("phase3.closure.rebuild", counters=self.counters):
                for assertion in remaining:
                    self.specify(
                        assertion.first,
                        assertion.second,
                        assertion.kind,
                        assertion.source,
                        assertion.note,
                    )

    # -- propagation -------------------------------------------------------------

    def _push(
        self, undo: _UndoLog, seeds: Iterable[tuple[int, int, int]]
    ) -> Pair | None:
        """Narrow a batch of facts, then propagate from all of them at once.

        The network's one narrow-and-propagate entry point (its callers
        are listed in the module docstring).  Each seed ``(x, y, bit)``
        is a fact over node ids that ANDs relation bit ``bit`` into
        R(x, y); :meth:`_propagate` then runs once, seeded with the fact
        pairs in first-seen order.  Every change goes to ``undo``, which
        the caller keeps or rolls back.  Returns the canonical pair that
        emptied, or ``None``; a fact that empties its own pair fails
        before any propagation.
        """
        rows = self._rows
        pairs: dict[_Key, _Key] = {}
        for x, y, bit in seeds:
            key = _key(x, y)
            undo.remember(self, key)
            mask = rows[x][y] & bit
            self._put(x, y, mask)
            if not mask:
                failure: _Key | None = (x, y)
                break
            pairs.setdefault(key, (x, y))
        else:
            failure = self._propagate(undo, pairs.values())
        if failure is None:
            return None
        return ordered_pair(self._refs[failure[0]], self._refs[failure[1]])

    def _propagate(
        self,
        undo: _UndoLog,
        seeds: Iterable[_Key],
    ) -> _Key | None:
        """Queue-based path consistency over the live tables, a row at a time.

        Narrows feasible sets along every triangle reachable from the seed
        pairs (oriented id pairs), mutating the rows and supports in place
        and recording prior values in ``undo``.  Returns the oriented pair
        that became empty on failure (callers roll back), or ``None``.

        A pop of (i, j) revises every third object k at once with two row
        operations on whole rows read as big ints:

        * ``R(i,·) ∩= R(i,j) ∘ R(j,·)``: row j translated through
          :data:`~repro.assertions.composition.COMPOSE_TRANSLATE`, then
          ANDed into row i;
        * ``R(j,·) ∩= R(j,i) ∘ R(i,·)`` over the *narrowed* row i, which
          is the converse form of ``R(·,j) ∩= R(·,i) ∘ R(i,j)``.

        Columns i and j are kept as they were (the diagonal and the pair
        itself are not revised).  Removed columns and the diagonal are
        universal and composition with a universal leg is universal, so
        only live third objects can change.  The changed columns are then
        applied one by one in live order, narrow (i, k) before (k, j), so
        the supports, the undo log, the queue and the first empty pair are
        exactly those of a loop over the live objects.

        ``counters.propagation_steps`` counts what that loop counts: one
        step per narrowing with a non-universal leg.  A pop of a universal
        pair narrows nothing and counts its rows' non-universal entries;
        any other pop counts two steps per third object, and a failing
        one only up to the failing leg.
        """
        rows = self._rows
        size = len(rows)
        width = 2 * (len(self._live) - 2)
        ranks = self._live_ranks()
        narrow = self._narrow
        steps = 0
        queue: deque[_Key] = deque(seeds)
        try:
            while queue:
                i, j = queue.popleft()
                row_i = rows[i]
                row_j = rows[j]
                rel_ij = row_i[j]
                if rel_ij == ALL_MASK:
                    steps += (
                        2 * size - row_i.count(ALL_MASK) - row_j.count(ALL_MASK)
                    )
                    continue
                keep = (0xFF << 8 * i) | (0xFF << 8 * j)
                old_i = int.from_bytes(row_i, "little")
                new_i = old_i & (
                    int.from_bytes(
                        row_j.translate(COMPOSE_TRANSLATE[rel_ij]), "little"
                    )
                    | keep
                )
                new_i_row = new_i.to_bytes(size, "little")
                old_j = int.from_bytes(row_j, "little")
                new_j = old_j & (
                    int.from_bytes(
                        new_i_row.translate(COMPOSE_TRANSLATE[row_j[i]]),
                        "little",
                    )
                    | keep
                )
                changed = (old_i ^ new_i) | (old_j ^ new_j)
                if changed:
                    new_j_row = new_j.to_bytes(size, "little")
                    columns = [
                        match.start()
                        for match in _NONZERO.finditer(
                            changed.to_bytes(size, "little")
                        )
                    ]
                    columns.sort(key=ranks.__getitem__)
                    for k in columns:
                        new = new_i_row[k]
                        if new != row_i[k]:
                            narrow(undo, i, k, j, new)
                            if not new:
                                steps += self._steps_before(ranks, i, j, k) + 1
                                return (i, k)
                            queue.append((i, k))
                        new = new_j_row[k]
                        if new != row_j[k]:
                            narrow(undo, k, j, i, CONVERSE_MASK[new])
                            if not new:
                                steps += self._steps_before(ranks, i, j, k) + 2
                                return (k, j)
                            queue.append((k, j))
                steps += width
            return None
        finally:
            self.counters.propagation_steps += steps

    @staticmethod
    def _steps_before(ranks: list[int], i: int, j: int, k: int) -> int:
        """Steps a pop of (i, j) takes over the third objects before k."""
        rank = ranks[k]
        return 2 * (rank - (ranks[i] < rank) - (ranks[j] < rank))

    def _live_ranks(self) -> list[int]:
        """Each node id's position in live (registration) order."""
        ranks = self._ranks
        if ranks is None:
            ranks = [0] * len(self._refs)
            for rank, node in enumerate(self._live):
                ranks[node] = rank
            self._ranks = ranks
        return ranks

    def _narrow(
        self, undo: _UndoLog, x: int, y: int, via: int, new: int
    ) -> None:
        """Set R(x,y) to ``new``, narrowed through ``via``; record the support.

        The support goes into both via cells, and the one it replaces
        moves to their high halves; a third distinct support starts the
        pair's overflow set.
        """
        key = _key(x, y)
        undo.remember(self, key)
        self._put(x, y, new)
        row_x = self._vias[x]
        code = (via + 1) << 1 | 1  # _code(via, True), inlined
        cell = row_x[y]
        last = cell & _LAST
        if last == code:
            return
        if last:
            prior = cell >> 16
            if prior and prior != code:
                supports = self._extra.get(key)
                if supports is None:
                    self._extra[key] = {
                        _decoded(x, y, last),
                        _decoded(x, y, prior),
                        (x, via, y),
                    }
                else:
                    supports.add((x, via, y))
            cell = code | last << 16
        else:
            cell = code
        row_x[y] = cell
        self._vias[y][x] = _converse_cell(cell)

    def _support_of(self, key: _Key) -> _Support | None:
        """The oriented support of a pair's last narrowing, if any."""
        x, y = key
        last = self._vias[x][y] & _LAST
        return _decoded(x, y, last) if last else None

    @property
    def _supports(self) -> dict[_Key, _Support]:
        """Pair -> the support of its last narrowing (a read-only copy)."""
        vias = self._vias
        return {
            (x, y): _decoded(x, y, vias[x][y] & _LAST)
            for x, y in self._supported_pairs()
        }

    @property
    def _support_index(self) -> dict[_Key, set[_Support]]:
        """Pair -> every support that narrowed it since it was last reset
        (a read-only copy)."""
        index = {}
        for key in self._supported_pairs():
            x, y = key
            cell = self._vias[x][y]
            index[key] = set(self._extra.get(key, ())) or {
                _decoded(x, y, code) for code in (cell & _LAST, cell >> 16) if code
            }
        return index

    def _supported_pairs(self) -> Iterator[_Key]:
        """Every pair with a support, lower id first."""
        for x, row in enumerate(self._vias):
            for y in range(x + 1, len(row)):
                if row[y]:
                    yield (x, y)

    # -- assertions and derivations ---------------------------------------------

    def _derived_at(self, key: _Key, *, supported: bool = True) -> Assertion:
        """The derived assertion on a singleton, unspecified pair, in
        ``ObjectRef`` order, with the support of its last narrowing
        (none when ``supported`` is false)."""
        refs = self._refs
        x, y = key
        if refs[y] < refs[x]:
            x, y = y, x
        (relation,) = MASK_RELATIONS[self._rows[x][y]]
        kind, decided = derived_kind(relation)
        support = self._support_of(key) if supported else None
        support_pairs: tuple[Pair, ...] = ()
        if support is not None:
            sx, via, sy = support
            support_pairs = (
                ordered_pair(refs[sx], refs[via]),
                ordered_pair(refs[via], refs[sy]),
            )
        return Assertion(
            refs[x],
            refs[y],
            kind,
            Source.DERIVED,
            supports=support_pairs,
            integrability_decided=decided,
        )

    def _derived_on(self, translate: bytes) -> list[Assertion]:
        """The derived assertions whose mask ``translate`` marks, by pair.

        One ``bytes.translate`` per live row finds the marked columns;
        removed nodes' columns are universal, so they are never marked.
        """
        specified = self._specified
        found: list[Assertion] = []
        for x in self._live:
            marks = self._rows[x].translate(translate)
            for match in _NONZERO.finditer(marks, x + 1):
                key = (x, match.start())
                if key not in specified:
                    found.append(self._derived_at(key))
        found.sort(key=_pair_order)
        return found

    def assertion_for(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> Assertion | None:
        """The specified or derived assertion on a pair, oriented, if any."""
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        key = self._key_of(first, second)
        if key is None:
            return None
        assertion = self._specified.get(key)
        if assertion is None:
            if not _SINGLETON_TRANSLATE[self._rows[key[0]][key[1]]]:
                return None
            assertion = self._derived_at(key)
        return assertion.oriented(first, second)

    def specified_assertions(self) -> list[Assertion]:
        """All DDA/implicit assertions, in specification order."""
        return list(self._log)

    def derived_assertions(self) -> list[Assertion]:
        """All derived (singleton, unspecified) assertions, by pair.

        Read off the mask rows with one scan of the live rows; every call
        builds new :class:`Assertion` objects.
        """
        return self._derived_on(_SINGLETON_TRANSLATE)

    def derived_count(self) -> int:
        """``len(derived_assertions())``, without building an assertion.

        Counts the singleton masks with the same scan of the live rows,
        less the specified pairs among them.
        """
        rows = self._rows
        singletons = sum(
            rows[x].translate(_SINGLETON_TRANSLATE).count(1, x + 1)
            for x in self._live
        )
        return singletons - sum(
            _SINGLETON_TRANSLATE[rows[x][y]] for x, y in self._specified
        )

    def all_assertions(self) -> list[Assertion]:
        """Specified assertions followed by derived ones."""
        return self.specified_assertions() + self.derived_assertions()

    def containment_assertions(self) -> list[Assertion]:
        """The specified log, then the derived equals/containment pairs.

        These are every assertion Phase 4 can use, in
        :meth:`all_assertions` order: specified in specification order,
        then derived by pair.  A derived overlap or disjointness is left
        out — :func:`~repro.assertions.kinds.derived_kind` leaves its
        integrability undecided, so it never places two objects in one
        cluster — and those pairs are the bulk of a finished network.
        The rest are found with one ``bytes.translate`` per live row.
        """
        return self.specified_assertions() + self._derived_on(
            _CONTAINMENT_TRANSLATE
        )

    def is_undetermined(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> bool:
        """Whether the pair still admits more than one relation."""
        x = self._node(coerce_object_ref(first))
        y = self._node(coerce_object_ref(second))
        if x == y:
            return False
        mask = self._rows[x][y]
        return mask & (mask - 1) != 0

    def feasible_table(self) -> dict[Pair, frozenset[Relation]]:
        """Every non-universal feasible set, keyed by canonical pair.

        Pairs absent from the table still admit all five relations.
        :func:`repro.solver.propagate` answers with this table, read off
        its fresh network after one :meth:`_push` of every fact.  A
        consistency probe (:func:`repro.solver.is_consistent`, each
        QuickXplain step) needs only the pair :meth:`_push` returns and
        builds no table.
        """
        refs = self._refs
        live = list(self._live)
        table: dict[Pair, frozenset[Relation]] = {}
        for index, x in enumerate(live):
            row = self._rows[x]
            for y in live[index + 1 :]:
                if row[y] == ALL_MASK:
                    continue
                first, second = (x, y) if refs[x] < refs[y] else (y, x)
                table[(refs[first], refs[second])] = MASK_RELATIONS[
                    self._rows[first][second]
                ]
        return table

    # -- explanation ---------------------------------------------------------------

    def explain(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> list[Assertion]:
        """The specified assertions underlying the pair's current state.

        For a specified pair this is the assertion itself; for a derived or
        narrowed pair it is the chain found by following support triples
        down to specified assertions — the lines Screen 9 lists under a
        derived conflict.
        """
        start = self._key_of(coerce_object_ref(first), coerce_object_ref(second))
        chain: list[Assertion] = []
        if start is None:
            return chain
        seen: set[_Key] = set()
        # depth first, left leg before right: an explicit stack, since a
        # recursive closure is a reference cycle that pins the network
        stack = [start]
        while stack:
            key = _key(*stack.pop())
            if key in seen:
                continue
            seen.add(key)
            specified = self._specified.get(key)
            if specified is not None:
                chain.append(specified)
                continue
            support = self._support_of(key)
            if support is None:
                continue
            sx, via, sy = support
            stack.append((via, sy))
            stack.append((sx, via))
        return chain

    def _report_for(
        self,
        new: Assertion,
        feasible: frozenset[Relation],
        failed_pair: Pair | None = None,
    ) -> ConflictReport:
        """Assemble the Screen 9 conflict report for a rejected assertion."""
        if failed_pair is None:
            subject_first, subject_second = new.first, new.second
        else:
            subject_first, subject_second = failed_pair
        current = self.assertion_for(subject_first, subject_second)
        chain = self.explain(subject_first, subject_second)
        return ConflictReport(
            new=new,
            subject_first=subject_first,
            subject_second=subject_second,
            current=current,
            feasible=feasible,
            facts=tuple(self._log),
            chain=chain,
        )
