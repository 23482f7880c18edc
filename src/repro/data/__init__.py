"""An instance-level substrate: populated ECR databases.

The paper's Phase 4 exists so that "requests in an operational system"
can be translated after integration.  To *verify* that translation — not
just rewrite syntax — this package provides a small in-memory database
over an ECR schema:

* :class:`InstanceStore` — entities (with IS-A membership closure),
  relationship links and a request executor for the
  :mod:`repro.query` language;
* :func:`populate_store` — seeded random population of any schema;
* :func:`migrate_store` — push a component database through a
  :class:`~repro.integration.mappings.SchemaMapping` into the integrated
  schema, merging duplicate real-world entities by key; and
* :func:`federated_answer` — execute a global request by routing it to
  component stores and unioning the answers.  This is the **sequential
  oracle** for the federated query engine: :mod:`repro.federation` adds
  concurrency, fault tolerance and assertion-aware merging, and its
  healthy-run answers are property-tested to equal this function's.

With these, the tests can check the semantic property the paper's
mappings promise: a view request answered on the view's database equals
the rewritten request answered on the integrated database.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Instance",
    "InstanceStore",
    "Link",
    "populate_store",
    "migrate_store",
    "merge_stores",
    "federated_answer",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Instance": "repro.data.instances",
        "InstanceStore": "repro.data.instances",
        "Link": "repro.data.instances",
        "populate_store": "repro.data.populate",
        "federated_answer": "repro.data.migrate",
        "merge_stores": "repro.data.migrate",
        "migrate_store": "repro.data.migrate",
    },
)
