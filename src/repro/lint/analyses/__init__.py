"""Whole-program analyses built on :class:`~repro.lint.index.ProjectIndex`.

Two rule families live here, both registered in the same
:data:`~repro.lint.engine.RULES` registry as the per-file rules:

* :mod:`repro.lint.analyses.async_races` -- the async interleaving
  detector for ``live/`` and ``live/net/`` (ASYNC101-ASYNC104), which
  reconstructs the two PR-8 pool races (retire-during-startup and the
  stranded-``ready``-waiter) as machine-checkable patterns;
* :mod:`repro.lint.analyses.conformance` -- the protocol-conformance
  checker (CONF001, CONF003-CONF005), cross-checking message kinds,
  event schemas, claim ids and the ``docs/PROTOCOLS.md`` table against
  the registries that price, validate and declare them.

Importing this package registers every analysis (the ``all_rules()``
side-effect contract).
"""

from repro.lint.analyses import async_races, conformance  # noqa: F401
