"""The tool's mutable state across screens.

One :class:`ToolSession` corresponds to one sitting of a DDA at the tool:
the schemas defined so far, the analysis state (registry + cached
similarity views + the two assertion networks, owned by an
:class:`~repro.equivalence.AnalysisSession`), the pair of schemas currently
being integrated and the latest integration result.

The screens keep reading ``session.registry`` / ``session.object_network``
/ ``session.relationship_network``; those are now views onto the embedded
analysis session, so every screen action benefits from the incremental
caches (memoized OCS cells, memoized Screen 8 ranking, incremental
assertion-closure repair) without any screen-level changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import Schema
from repro.equivalence.ordering import CandidatePair
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError, ToolError, UnknownNameError
from repro.integration.options import IntegrationOptions
from repro.integration.result import IntegrationResult


@dataclass
class ToolSession:
    """Everything the screens read and mutate."""

    options: IntegrationOptions = field(default_factory=IntegrationOptions)
    schemas: dict[str, Schema] = field(default_factory=dict)
    #: registry + cached matrices + assertion networks, kept consistent
    analysis: AnalysisSession = field(default_factory=AnalysisSession)
    #: the two schemas selected for the current pairwise phase
    selected_pair: tuple[str, str] | None = None
    result: IntegrationResult | None = None
    #: the federated query engine over the component databases, once
    #: attached (see :meth:`connect_federation`)
    federation: "object | None" = None
    #: status line shown under the next screen render
    status: str = ""
    #: the write-ahead log mutations are autosaved to, once attached
    #: (see :meth:`attach_wal` / :meth:`open`)
    wal: "object | None" = None
    #: how the last :meth:`open` / :meth:`restore_from` rebuilt the
    #: session (a :class:`~repro.kernel.recovery.RecoveryReport`)
    last_recovery: "object | None" = None

    # -- analysis-state views ------------------------------------------------------

    @property
    def registry(self) -> EquivalenceRegistry:
        """The equivalence registry (owned by :attr:`analysis`)."""
        return self.analysis.registry

    @property
    def object_network(self) -> AssertionNetwork:
        """The object-class assertion network (owned by :attr:`analysis`)."""
        return self.analysis.object_network

    @property
    def relationship_network(self) -> AssertionNetwork:
        """The relationship-set assertion network (owned by :attr:`analysis`)."""
        return self.analysis.relationship_network

    # -- schema management -------------------------------------------------------

    def add_schema(self, name: str) -> Schema:
        if name in self.schemas:
            raise ToolError(f"schema {name!r} already defined")
        schema = Schema(name)
        self.schemas[name] = schema
        self.analysis.add_schema(schema)
        return schema

    def delete_schema(self, name: str) -> None:
        if name not in self.schemas:
            raise ToolError(f"no schema {name!r}")
        self.analysis.delete_schema(name)
        self._sync_schemas()

    # -- cross-phase undo/redo -----------------------------------------------------

    def undo(self) -> str:
        """Revert the most recent effectful action, whatever screen made it.

        Walks the kernel's event log back one group — an equivalence
        declared on Screen 7, an assertion from Screen 8/9, a schema
        edit, an integration — and returns a status line for the screen.
        """
        kernel = self.analysis.kernel
        if not kernel.undo():
            raise ToolError("nothing to undo")
        self._after_time_travel()
        return f"undid last action (now at event {kernel.head})"

    def redo(self) -> str:
        """Re-apply the next undone action; the mirror of :meth:`undo`."""
        kernel = self.analysis.kernel
        if not kernel.redo():
            raise ToolError("nothing to redo")
        self._after_time_travel()
        return f"redid action (now at event {kernel.head})"

    def _after_time_travel(self) -> None:
        """Re-sync the tool's denormalised views after the kernel moved."""
        self._sync_schemas()
        self.result = self.analysis.kernel.result_at_head()
        self.federation = None  # derived from the result; re-attach on demand

    def _sync_schemas(self) -> None:
        """Re-read the schemas from a session that was rebuilt in place."""
        self.schemas = {
            schema.name: schema for schema in self.analysis.schemas()
        }
        if self.selected_pair is not None and any(
            name not in self.schemas for name in self.selected_pair
        ):
            self.selected_pair = None

    def schema(self, name: str) -> Schema:
        try:
            return self.schemas[name]
        except KeyError:
            raise ToolError(f"no schema {name!r}") from None

    def adopt_schema(self, schema: Schema) -> None:
        """Take over an externally built schema (examples, save files)."""
        if schema.name in self.schemas:
            raise ToolError(f"schema {schema.name!r} already defined")
        self.schemas[schema.name] = schema
        self.analysis.add_schema(schema)

    # -- schema evolution ---------------------------------------------------------

    def apply_edit(self, schema_name: str, edit):
        """Apply a typed schema edit and repair every downstream layer.

        The edit enters the kernel through
        :meth:`AnalysisSession.apply_edit
        <repro.equivalence.session.AnalysisSession.apply_edit>` (registry,
        OCS/ACS views, assertion networks, re-integration of the
        integrated pair); this layer then picks up
        the re-integrated result and refreshes the federation mappings in
        place, while the planner's registry subscription drops only the
        plans whose legs touch the edited schema.  The returned
        :class:`~repro.evolution.EditOutcome` carries the full
        repair-scope report; its summary lands on :attr:`status`.  When
        the edit is refused, nothing here changes.  When its transaction
        rolled back, the session was rebuilt in place: the tool re-reads
        its schemas and points an attached federation's planner at the
        rebuilt object network, and its component stores at the rebuilt
        schemas, before the error propagates.
        """
        self.schema(schema_name)  # unknown names are a ToolError here
        counters = self.analysis.counters
        cells_before = counters.ocs_cells_recomputed
        planner = None
        plans_before = 0
        if self.federation is not None:
            planner = self.federation.planner
            planner.last_evolve_invalidated = 0
            plans_before = planner.cache_size()
        registry = self.analysis.registry
        try:
            outcome = self.analysis.apply_edit(schema_name, edit)
        except Exception:
            if self.analysis.registry is not registry:
                # the rollback rebuilt the session: the result at the head
                # and the name-based mappings still hold
                self._sync_schemas()
                if planner is not None:
                    planner.object_network = self.object_network
                    # the stores still hold the schemas the edit mutated
                    for backend in self.federation.executor.backends.values():
                        store = backend.store
                        store.schema = self.schemas[store.schema.name]
            raise
        scope = outcome.scope
        scope.ocs_cells_recomputed = (
            counters.ocs_cells_recomputed - cells_before
        )
        if scope.integrated_patched:
            self.result = self.analysis.kernel.result_at_head()
            if planner is not None:
                from repro.integration.mappings import build_mappings

                mappings = build_mappings(
                    self.result, list(self.schemas.values())
                )
                planner.mappings = {
                    name: mapping
                    for name, mapping in mappings.items()
                    if name in planner.mappings
                }
                planner.integrated_schema = self.result.schema
        if planner is not None:
            scope.plans_total = plans_before
            scope.plans_invalidated = planner.last_evolve_invalidated
            counters.evolution_plans_invalidated += scope.plans_invalidated
        self.status = scope.summary()
        return outcome

    # -- pair selection ------------------------------------------------------------

    def select_pair(self, first: str, second: str) -> None:
        if first == second:
            raise ToolError("choose two different schemas")
        self.schema(first)
        self.schema(second)
        self.selected_pair = (first, second)

    def require_pair(self) -> tuple[str, str]:
        if self.selected_pair is None:
            raise ToolError("no schema pair selected")
        return self.selected_pair

    # -- candidates ---------------------------------------------------------------

    def candidate_pairs(self, relationships: bool = False) -> list[CandidatePair]:
        first, second = self.require_pair()
        return self.analysis.candidate_pairs(
            first, second, relationships=relationships
        )

    def network_for(self, relationships: bool) -> AssertionNetwork:
        return self.analysis.network_for(relationships)

    # -- integration -----------------------------------------------------------------

    def integrate(self, result_name: str = "integrated") -> IntegrationResult:
        first, second = self.require_pair()
        self.result = self.analysis.integrate(
            first, second, result_name=result_name, options=self.options
        )
        return self.result

    def require_result(self) -> IntegrationResult:
        if self.result is None:
            raise ToolError("no integration has been performed yet")
        return self.result

    # -- federation (running global requests over the components) ----------------

    def connect_federation(self, stores=None, *, policy=None):
        """Wire up a federated query engine over the latest result.

        ``stores`` maps component schema names to
        :class:`~repro.data.instances.InstanceStore` objects — the
        operational component databases.  When omitted, each contributing
        component schema is populated with seeded demo data so the screen
        is usable straight after integration.  Returns a frozen
        :class:`~repro.tool.results.FederationAttachment` describing what
        was wired (the live engine rides on its ``engine`` field and is
        also kept on :attr:`federation`).
        """
        from repro.data.populate import populate_store
        from repro.federation import FederationEngine
        from repro.integration.mappings import build_mappings
        from repro.tool.results import FederationAttachment

        result = self.require_result()
        mappings = build_mappings(result, list(self.schemas.values()))
        demo: tuple[str, ...] = ()
        if stores is None:
            demo = tuple(sorted(mappings))
            stores = {
                name: populate_store(self.schema(name), seed=index + 1)
                for index, name in enumerate(sorted(mappings))
            }
        self.federation = FederationEngine.for_stores(
            {name: mappings[name] for name in stores},
            stores,
            result.schema,
            object_network=self.object_network,
            registry=self.registry,
            policy=policy,
        )
        return FederationAttachment(
            components=tuple(sorted(stores)),
            integrated_schema=result.schema.name,
            demo_components=demo,
            engine=self.federation,
        )

    def require_federation(self):
        """The attached engine, auto-attaching demo stores if needed."""
        if self.federation is None:
            self.connect_federation()
        return self.federation

    def execute_global_request(self, text: str):
        """Execute a global request through the federation engine.

        Returns a frozen, wire-ready
        :class:`~repro.tool.results.GlobalRequestResult`; the engine's
        full :class:`~repro.federation.engine.FederationResult` stays
        reachable as its ``raw`` field.  The outcome is captured on the
        audit log (scope ``federation``, action ``query``) when recording
        is on; replay treats these events as informational since they
        never mutate analysis state.
        """
        from repro.tool.results import GlobalRequestResult

        engine = self.require_federation()
        try:
            result = engine.query(text)
        except ReproError:
            raise
        except Exception as exc:  # surface engine faults as tool errors
            raise ToolError(f"federated query failed: {exc}") from exc
        self.analysis.record_query(
            {
                "request": text,
                "strategy": str(result.plan.strategy),
                "components": result.plan.components,
                "rows": len(result.rows),
                "health": result.health.to_dict(),
                "conflicts": [c.describe() for c in result.conflicts],
            }
        )
        return GlobalRequestResult.from_engine_result(text, result)

    # -- persistence (the data dictionary) ---------------------------------------

    def to_dictionary(self):
        """Capture the session in a :class:`~repro.dictionary.DataDictionary`.

        Schemas, the DDA's attribute equivalences (reconstructed from the
        non-trivial equivalence classes), the DDA's assertions (implicit
        ones are re-derived from the schemas on load) and the latest
        integration result are recorded.
        """
        from repro.assertions.kinds import Source
        from repro.dictionary import DataDictionary
        from repro.integration.mappings import build_mappings

        dictionary = DataDictionary()
        for schema in self.schemas.values():
            dictionary.add_schema(schema.copy())
        for members in self.registry.nontrivial_classes():
            anchor = members[0]
            for other in members[1:]:
                dictionary.record_equivalence(anchor, other)
        for relationship_flag, network in (
            (False, self.object_network),
            (True, self.relationship_network),
        ):
            for assertion in network.specified_assertions():
                if assertion.source is Source.DDA:
                    dictionary.record_assertion(
                        assertion.first,
                        assertion.second,
                        assertion.kind,
                        relationship=relationship_flag,
                    )
        if self.result is not None:
            dictionary.store_result(
                self.result.schema.name,
                self.result,
                build_mappings(self.result, list(self.schemas.values())),
            )
        dictionary.store_kernel(self.analysis.kernel.export_state())
        return dictionary

    @classmethod
    def from_dictionary(cls, dictionary) -> "ToolSession":
        """Rebuild a live session from a saved dictionary.

        New-format dictionaries carry the kernel's event log + baseline:
        the session is restored by replaying from the baseline to the
        saved head (fingerprint-verified), and its history stays
        undo-able.  Legacy dictionaries without a kernel record rebuild
        the components directly and start a fresh history at the restored
        state (``set_baseline``).
        """
        return cls._rebuild(dictionary, dictionary.kernel_state())

    @classmethod
    def from_kernel_state(cls, state) -> "ToolSession":
        """Re-derive a session from an exported kernel state alone.

        ``state`` is :meth:`~repro.kernel.kernel.Kernel.export_state`
        output: the event log, baseline and cursors.  The session is
        rebuilt by baseline + replay — the same machinery recovery uses —
        so the service's audit-replay jobs can verify a live session
        against its own history without touching disk.
        """
        return cls._rebuild(None, state)

    @classmethod
    def _rebuild(cls, dictionary, state) -> "ToolSession":
        """Build a session from a dictionary and a serialised kernel state.

        ``state`` is usually ``dictionary.kernel_state()`` but recovery
        passes the save's state with the WAL tail already replayed onto
        it; either may be ``None`` (legacy save, fresh session).
        """
        from repro.kernel import Kernel

        session = cls()
        if state is not None:
            kernel = Kernel.restore(state)
            session.analysis = AnalysisSession(kernel=kernel)
            kernel.checkout(int(state.get("head", kernel.bus.offset)))
            session.schemas = {
                schema.name: schema for schema in session.analysis.schemas()
            }
            session.result = kernel.result_at_head()
        elif dictionary is not None:
            for schema in dictionary.schemas():
                session.schemas[schema.name] = schema
            object_network, relationship_network = dictionary.build_networks()
            session.analysis = AnalysisSession(
                registry=dictionary.build_registry(),
                object_network=object_network,
                relationship_network=relationship_network,
            )
        if session.result is None and dictionary is not None:
            names = dictionary.result_names()
            if names:
                session.result = dictionary.result(names[-1])
        return session

    def save(self, path) -> None:
        """Persist the session as a data-dictionary JSON file.

        A checkpoint: the save is written atomically (with an integrity
        footer), then the attached write-ahead log is reset — the save
        now holds everything the old WAL generation recorded.  A session
        without a WAL gains one here, rooted next to the save file, so
        every later mutation is journalled.

        The whole checkpoint runs under the kernel's bus lock: a
        transaction committing between the state export and the WAL
        reset would otherwise be wiped from the journal without being in
        the save.
        """
        kernel = self.analysis.kernel
        with kernel.bus.lock:
            self.to_dictionary().save(path)
            if self.wal is None:
                from repro.kernel.recovery import wal_directory_for
                from repro.kernel.wal import WriteAheadLog

                self.attach_wal(WriteAheadLog(wal_directory_for(path)))
            self.wal.reset(
                kernel.bus.offset,
                kernel.head,
                state=kernel.export_state(),
            )

    def attach_wal(self, wal) -> None:
        """Journal every committed mutation to ``wal`` from now on."""
        self.wal = wal
        self.analysis.kernel.attach_wal(wal)

    @classmethod
    def load(cls, path) -> "ToolSession":
        """Restore a session saved by :meth:`save` (no WAL attached)."""
        from repro.dictionary import DataDictionary

        return cls.from_dictionary(DataDictionary.load(path))

    @classmethod
    def open(cls, path, wal_dir=None, *, create=True) -> "ToolSession":
        """Restore a session with crash recovery and durable mutations.

        Loads the last good save, replays the write-ahead log tail a
        crash may have left beside it (``<path>.wal`` unless ``wal_dir``
        says otherwise), attaches the repaired WAL so further mutations
        are journalled, and records how the state was rebuilt on
        :attr:`last_recovery`.  With ``create=True`` (the default) a
        path with neither save nor WAL opens as a fresh durable session;
        ``create=False`` makes that a
        :class:`~repro.errors.DictionaryNotFoundError` instead (the
        tool's Load command must not invent sessions).
        """
        from repro.errors import DictionaryNotFoundError
        from repro.kernel.recovery import RecoveryManager

        manager = RecoveryManager(path, wal_dir)
        if (
            not create
            and not manager.save_path.exists()
            and not any(manager.wal_dir.glob("wal-*.seg"))
        ):
            raise DictionaryNotFoundError(path)
        report = manager.recover()
        session = cls._rebuild(manager.dictionary, manager.kernel_state)
        session.attach_wal(manager.wal)
        session.last_recovery = report
        return session

    def recovery_info(self):
        """How the last :meth:`open` / :meth:`restore_from` rebuilt this session.

        A frozen, wire-ready :class:`~repro.tool.results.RecoveryInfo`
        mirror of :attr:`last_recovery`, or ``None`` when the session was
        never opened from disk.
        """
        from repro.tool.results import RecoveryInfo

        if self.last_recovery is None:
            return None
        return RecoveryInfo.from_report(self.last_recovery)

    def restore_from(self, path) -> None:
        """Replace this session's state with a saved one, in place.

        Used by the main menu's Load command: screens hold a reference to
        the session object, so the state must change under them.  Goes
        through :meth:`open`, so a WAL left by a crash is replayed and
        the restored session keeps journalling.
        """
        loaded = type(self).open(path, create=False)
        audit = self.analysis.detach_audit()
        self.schemas = loaded.schemas
        self.analysis = loaded.analysis
        self.result = loaded.result
        self.wal = loaded.wal
        self.last_recovery = loaded.last_recovery
        if audit is not None:
            self.analysis.attach_audit(audit)
        self.selected_pair = None

    # -- browse helpers ---------------------------------------------------------------

    def integrated_structure(self, name: str):
        result = self.require_result()
        try:
            return result.schema.get(name)
        except UnknownNameError:
            raise ToolError(
                f"no structure {name!r} in the integrated schema"
            ) from None
