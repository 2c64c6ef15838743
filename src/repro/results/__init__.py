"""First-class results: schema-versioned records, a JSON-lines store, queries.

This package is the durable fourth layer of the harness stack.  The workload
table names *what* to run, the executors decide *how*, the environment
specs pin *under which conditions* — and ``repro.results`` owns what every
run *produced*:

* :class:`~repro.results.record.RecordBase` — the one record envelope: a
  stable content key ``(protocol, workload, env-hash, n, ts, delta, seed)``
  derivable from the declarative task alone, the tags, a metrics digest and
  the schema version around the run's outcome dataclass
  (``record.outcome``), whose declared fields drive the JSON encoding, the
  decoding and :meth:`~repro.results.record.RecordBase.to_outcome`;
* its kinds — :class:`~repro.results.record.RunRecord` (a
  :class:`~repro.consensus.values.RunOutcome`) and
  :class:`~repro.results.smr_record.SmrRecord` (an
  :class:`~repro.smr.outcome.SmrOutcome`, serialized with ``"kind":
  "smr"``) — each a short declaration registered in the kind table that
  :func:`~repro.results.record.record_for_task` and
  :func:`~repro.results.record.decode_record_dict` dispatch on; a class
  refuses the other kind's records;
* :class:`~repro.results.store.JsonlStore` — the store: an append-only
  JSON-lines log of records, read once when it is opened, opened from a
  ``*.jsonl`` path by :func:`~repro.results.store.open_store`;
* :mod:`~repro.results.query` — record-level aggregation and the bridge
  back into :class:`~repro.harness.experiment.ResultSet`, so the existing
  tables and stats run unchanged on stored data.

Because simulations are seeded and deterministic, a stored record is a
faithful substitute for re-executing its task: ``run_experiment``,
``run_smr_tasks`` and ``run_campaign`` (which runs every E1–E9 plan's
tasks as one batch) accept ``store=``/``resume=`` and load any record
already present under a task's content key instead of running it, which
is what makes an interrupted campaign resumable.

Schema-version policy
=====================

``schema_version`` (currently :data:`~repro.results.record.SCHEMA_VERSION`
= 1, shared by every record kind) is a single integer bumped whenever the
serialized shape changes incompatibly.  The contract:

* **Writers** always emit the current version; stores never rewrite old
  records in place.
* **Readers** accept any version ``<=`` the current one and raise
  :class:`~repro.errors.ResultSchemaError` on versions *newer* than they
  understand (or on anything but an integer), rather than guessing.  Only
  version 1 exists, so no upgrade path is written yet: additive changes
  need no bump, because an outcome field with a default that a stored
  record lacks decodes to that default.  A bump must add the upgrade to
  :meth:`~repro.results.record.RecordBase.from_dict`.
* **Content keys** embed the schema version in the hashed fingerprint, so
  a record written under an incompatible schema never masquerades as a
  cache hit for a task keyed under the current one.
* Values that JSON cannot represent faithfully are rejected with
  :class:`~repro.errors.ResultSchemaError` (naming each offending value)
  when the record is built — never silently coerced at read time.
"""
