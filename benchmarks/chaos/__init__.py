"""Seeded chaos grid for the fault-injection subsystem.

See :mod:`benchmarks.chaos.cases` for the case list and
:mod:`benchmarks.chaos.run` for the CLI / report writer; every case is
classified by :func:`repro.chaos.executor.execute_case`.
"""
