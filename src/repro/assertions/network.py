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
Supports, the support index and the undo log are keyed by id pairs and
triples.
Frozensets and ``ObjectRef`` pairs appear only at the boundary:
:meth:`~AssertionNetwork.feasible`,
:meth:`~AssertionNetwork.feasible_table`, :attr:`Assertion.supports`,
:meth:`~AssertionNetwork.explain` and :class:`ConflictReport`.

The network maintains itself **incrementally**, matching the tool's
interactive loop where each DDA action touches one edge:

* :meth:`specify` propagates only from the changed edge's frontier, mutating
  the tables in place with an undo log (no whole-network copies); a conflict
  rolls the log back, leaving the network exactly as before.
* :meth:`retract` / :meth:`respecify` repair only the **affected
  neighborhood**: a per-edge support index records every triangle that ever
  narrowed a pair, the dependent closure of the retracted edge is reset, and
  path consistency is re-run from the constrained frontier of that region —
  the rest of the network is untouched.  (Construct the network with
  ``incremental=False`` to force the old full-rebuild behaviour; the
  benchmarks use it as the baseline.)
* Derived assertions are refreshed only for the pairs a call touched —
  its undo-log entries, plus the reset region of a retract — never by a
  scan of the whole matrix.

Work done either way is tallied in :attr:`counters`
(:class:`~repro.obs.metrics.AnalysisCounters`).
"""

from __future__ import annotations

import re
from collections import deque
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable

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

#: A non-zero byte: the changed columns of a row diff.
_NONZERO = re.compile(rb"[^\x00]")


def _key(x: int, y: int) -> _Key:
    return (x, y) if x < y else (y, x)


class _UndoLog:
    """Prior state of every pair touched by one propagation run.

    Propagation mutates the network tables in place; on conflict the log
    restores them, which is what makes trial-specification cheap.  Its
    keys are also the pairs whose derived assertions need refreshing.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: key -> (old mask, old last support, old support-index set)
        self.entries: dict[_Key, tuple[int, object, object]] = {}

    def remember(self, network: "AssertionNetwork", key: _Key) -> None:
        if key in self.entries:
            return
        index = network._support_index.get(key)
        self.entries[key] = (
            network._rows[key[0]][key[1]],
            network._supports.get(key, _ABSENT),
            set(index) if index is not None else _ABSENT,
        )

    def rollback(self, network: "AssertionNetwork") -> None:
        for key, (mask, support, index) in self.entries.items():
            network._put(key[0], key[1], mask)
            if support is _ABSENT:
                network._supports.pop(key, None)
            else:
                network._supports[key] = support  # type: ignore[assignment]
            if index is _ABSENT:
                network._support_index.pop(key, None)
            else:
                network._support_index[key] = index  # type: ignore[assignment]


class AssertionNetwork:
    """Assertions over a set of object classes, with derivation and checking."""

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
        #: pair -> oriented support triple for its last narrowing
        self._supports: dict[_Key, _Support] = {}
        #: pair -> every support triple that narrowed it since it was last
        #: reset; the reverse reading of this index is the dependency graph
        #: incremental retraction walks
        self._support_index: dict[_Key, set[_Support]] = {}
        #: pair -> derived assertion (singleton, not specified)
        self._derived: dict[_Key, Assertion] = {}
        #: shared work counters (an :class:`AnalysisSession` injects its own)
        self.counters = counters if counters is not None else AnalysisCounters()
        #: whether retract/respecify repair incrementally (False = rebuild)
        self.incremental = incremental
        #: kernel-bus emitter (an :class:`AnalysisSession` binds one);
        #: commits every specify/retract, plus conflicts and rejections,
        #: as ``<scope>.*`` events for the audit tap and undo/redo.
        self.events: "EventEmitter | None" = None

    # -- membership ------------------------------------------------------------

    def add_object(self, ref: ObjectRef | str) -> None:
        """Register an object class as a network node (idempotent)."""
        ref = coerce_object_ref(ref)
        node = self._ids.get(ref)
        if node is None:
            node = len(self._refs)
            self._ids[ref] = node
            self._refs.append(ref)
            for row in self._rows:
                row.append(ALL_MASK)
            self._rows.append(bytearray([ALL_MASK]) * (node + 1))
        if node not in self._live:
            self._live[node] = None
            self._ranks = None

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
        # Belt and braces: the retraction closures above already reset every
        # entry that involved (or was supported through) the node, but purge
        # any residue so a stale constraint can never survive the node.
        for other in range(len(self._rows)):
            self._put(node, other, ALL_MASK)
        for key in [k for k in self._supports if node in k]:
            del self._supports[key]
        for key in [k for k in self._derived if node in k]:
            del self._derived[key]
        for key, supports in list(self._support_index.items()):
            if node in key:
                del self._support_index[key]
                continue
            pruned = {s for s in supports if node not in s}
            if not pruned:
                del self._support_index[key]
            elif pruned != supports:
                self._support_index[key] = pruned
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
        for structure in schema.object_classes():
            self.add_object(ObjectRef(schema.name, structure.name))
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
        prior = self._specified_on(first, second)
        try:
            with span("phase3.closure.specify", counters=self.counters):
                result = self._specify_checked(first, second, kind, source, note)
        except ConflictError:
            self._emit_assertion(
                "conflict", first, second, kind, source, note,
                inverse=NO_CHANGE,
            )
            raise
        except AssertionSpecError:
            self._emit_assertion(
                "rejected", first, second, kind, source, note,
                inverse=NO_CHANGE,
            )
            raise
        if result is prior:
            # re-stating the existing assertion: history records the
            # attempt, but there is nothing to undo
            inverse: object = NO_CHANGE
        else:
            inverse = self._retract_inverse(first, second)
        self._emit_assertion(
            "specify", first, second, kind, source, note, inverse=inverse
        )
        return result

    def _retract_inverse(
        self, first: ObjectRef, second: ObjectRef
    ) -> object:
        if self.events is None:
            return None
        return (
            self.events.scope,
            "retract",
            {"first": str(first), "second": str(second)},
        )

    def _emit_assertion(
        self,
        action: str,
        first: ObjectRef,
        second: ObjectRef,
        kind: AssertionKind,
        source: Source,
        note: str,
        *,
        inverse: object = None,
    ) -> None:
        if self.events is None:
            return
        self.events.emit(
            action,
            {
                "first": str(first),
                "second": str(second),
                "kind": kind.code,
                "source": source.name,
                "note": note,
            },
            inverse=inverse,
        )

    def _specify_checked(
        self,
        first: ObjectRef,
        second: ObjectRef,
        kind: AssertionKind,
        source: Source,
        note: str,
    ) -> Assertion:
        x = self._node(first)
        y = self._node(second)
        if x == y:
            raise AssertionSpecError(f"cannot assert {first} against itself")
        key = _key(x, y)
        existing = self._specified.get(key)
        new = Assertion(first, second, kind, source, note=note)
        if existing is not None:
            oriented = existing.oriented(first, second)
            if oriented.kind is kind:
                return existing  # re-stating the same assertion is a no-op
            raise AssertionSpecError(
                f"pair {first}/{second} already carries "
                f"assertion {oriented.kind.code}; retract or respecify it"
            )
        current = self._rows[x][y]
        bit = RELATION_BIT[kind.relation]
        if not current & bit:
            raise ConflictError(self._report_for(new, MASK_RELATIONS[current]))
        undo = _UndoLog()
        undo.remember(self, key)
        self._put(x, y, bit)
        failure = self._propagate(undo, [(x, y)])
        if failure is not None:
            # Restore the pre-trial network first so the Screen 9 report is
            # assembled from the committed state, as before.
            undo.rollback(self)
            failed_pair = ordered_pair(
                self._refs[failure[0]], self._refs[failure[1]]
            )
            raise ConflictError(
                self._report_for(new, frozenset(), failed_pair=failed_pair)
            )
        self._specified[key] = new
        self._log.append(new)
        self._derived.pop(key, None)
        self._refresh_derived(undo.entries)
        return new

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

        The support index records, per pair, every triangle that narrowed
        it; reading it backwards gives the dependents of each pair.  The
        dependent closure of the retracted edge is a (conservative)
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

        Every set here holds id pairs, whose iteration order does not
        depend on the string hash seed, so neither does the work done.
        """
        self.counters.closure_incremental_retracts += 1
        dependents: dict[_Key, set[_Key]] = {}
        for narrowed, supports in self._support_index.items():
            for x, via, y in supports:
                dependents.setdefault(_key(x, via), set()).add(narrowed)
                dependents.setdefault(_key(via, y), set()).add(narrowed)
        affected = {root}
        stack = [root]
        while stack:
            key = stack.pop()
            for dependent in dependents.get(key, ()):
                if dependent not in affected:
                    affected.add(dependent)
                    stack.append(dependent)
        refs = self._refs
        for key in affected:
            self._put(key[0], key[1], ALL_MASK)
            self._supports.pop(key, None)
            self._support_index.pop(key, None)
            self._derived.pop(key, None)
        self.counters.closure_pairs_recomputed += len(affected)
        for key in affected:
            survivor = self._specified.get(key)
            if survivor is not None:
                self._put(
                    self._ids[survivor.first],
                    self._ids[survivor.second],
                    RELATION_BIT[survivor.relation],
                )
        undo = _UndoLog()
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
        self._refresh_derived(affected.union(undo.entries))

    def _rebuild(self) -> None:
        """Full re-propagation from the specified log (the baseline path)."""
        self.counters.closure_full_rebuilds += 1
        remaining = list(self._log)
        size = len(self._refs)
        self._rows = [bytearray([ALL_MASK]) * size for _ in range(size)]
        self._supports = {}
        self._support_index = {}
        self._derived = {}
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

    def propagate_facts(self, facts: Iterable[Assertion]) -> Pair | None:
        """Close a batch of facts in one path-consistency run.

        The batch entry point of :mod:`repro.solver`, meant for a fresh
        network whose nodes are the facts' objects: each fact narrows its
        pair, then :meth:`_propagate` runs once, seeded with every fact
        pair.  Only the feasible masks (and supports) change; nothing is
        recorded as specified or derived, and nothing is rolled back.
        Returns the canonical pair that emptied, or ``None``.  A fact that
        clashes with an earlier one on its own pair fails at once, before
        any propagation.
        """
        seeds: dict[_Key, tuple[int, int]] = {}
        for fact in facts:
            x = self._node(fact.first)
            y = self._node(fact.second)
            if x == y:
                raise AssertionSpecError(
                    f"cannot assert {fact.first} against itself"
                )
            mask = self._rows[x][y] & RELATION_BIT[fact.relation]
            self._put(x, y, mask)
            if not mask:
                return fact.pair
            seeds.setdefault(_key(x, y), (x, y))
        failure = self._propagate(_UndoLog(), seeds.values())
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
        """Set R(x,y) to ``new``, narrowed through ``via``; record the support."""
        key = _key(x, y)
        undo.remember(self, key)
        self._put(x, y, new)
        support = (x, via, y)
        self._supports[key] = support
        index = self._support_index.get(key)
        if index is None:
            self._support_index[key] = {support}
        else:
            index.add(support)

    # -- assertions and derivations ---------------------------------------------

    def _refresh_derived(self, touched: Iterable[_Key]) -> None:
        """Materialise derived assertions for newly singleton touched pairs."""
        refs = self._refs
        for key in touched:
            if key in self._specified or key in self._derived:
                continue
            x, y = key
            if len(MASK_RELATIONS[self._rows[x][y]]) != 1:
                continue
            if refs[y] < refs[x]:
                x, y = y, x
            (relation,) = MASK_RELATIONS[self._rows[x][y]]
            kind, decided = derived_kind(relation)
            support = self._supports.get(key)
            support_pairs: tuple[Pair, ...] = ()
            if support is not None:
                sx, via, sy = support
                support_pairs = (
                    ordered_pair(refs[sx], refs[via]),
                    ordered_pair(refs[via], refs[sy]),
                )
            self._derived[key] = Assertion(
                refs[x],
                refs[y],
                kind,
                Source.DERIVED,
                supports=support_pairs,
                integrability_decided=decided,
            )

    def assertion_for(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> Assertion | None:
        """The specified or derived assertion on a pair, oriented, if any."""
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        key = self._key_of(first, second)
        if key is None:
            return None
        assertion = self._specified.get(key) or self._derived.get(key)
        if assertion is None:
            return None
        return assertion.oriented(first, second)

    def specified_assertions(self) -> list[Assertion]:
        """All DDA/implicit assertions, in specification order."""
        return list(self._log)

    def derived_assertions(self) -> list[Assertion]:
        """All derived (singleton, unspecified) assertions, by pair."""
        # a derived assertion is stored in pair order (first < second);
        # comparing plain strings skips the dataclass comparisons
        return sorted(
            self._derived.values(),
            key=lambda a: (
                a.first.schema,
                a.first.object_name,
                a.second.schema,
                a.second.object_name,
            ),
        )

    def all_assertions(self) -> list[Assertion]:
        """Specified assertions followed by derived ones."""
        return self.specified_assertions() + self.derived_assertions()

    def is_undetermined(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> bool:
        """Whether the pair still admits more than one relation."""
        return len(self.feasible(first, second)) > 1

    def feasible_table(self) -> dict[Pair, frozenset[Relation]]:
        """Every non-universal feasible set, keyed by canonical pair.

        Pairs absent from the table still admit all five relations.  The
        batch solver (:mod:`repro.solver`) answers with this table, read
        off a throwaway network after :meth:`propagate_facts`.
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

        def walk(x: int, y: int) -> None:
            key = _key(x, y)
            if key in seen:
                return
            seen.add(key)
            specified = self._specified.get(key)
            if specified is not None:
                chain.append(specified)
                return
            support = self._supports.get(key)
            if support is None:
                return
            sx, via, sy = support
            walk(sx, via)
            walk(via, sy)

        walk(*start)
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
