"""Interned columnar fact storage: the integer-encoded execution layer.

The package has three layers:

* :mod:`repro.store.intern` — the global ``Constant`` ↔ dense-int-id
  mapping every store encodes through (one id space per process);
* :mod:`repro.store.columnar` — :class:`ColumnarFactStore`, holding each
  relation as integer columns with O(1) membership, per-block id slices,
  and dense block ids;
* :mod:`repro.store.index` / :mod:`repro.store.kernels` — the
  :class:`ColumnarFactIndex` every session, solver, compiled plan and
  incremental view runs on (a store kept in step with a database through
  the observer protocol; no object-level copy of the facts) and the
  id-space sweeps built on it.  A sub-database is a set of live id-rows
  over one store (:data:`~repro.store.columnar.LiveRows`): purification
  and the peeling recursion filter rows, they never copy a store.

Correctness is checked against the paper's definitions, not against a
second implementation: repair enumeration
(:func:`~repro.certainty.brute_force.certain_by_enumeration`) and the naive
:class:`~repro.fo.evaluate.FormulaEvaluator`.
"""

from .columnar import ColumnarFactStore, scratch_store
from .index import ColumnarFactIndex
from .intern import InternTable, global_intern_table
from .kernels import used_rows

__all__ = [
    "ColumnarFactIndex",
    "ColumnarFactStore",
    "InternTable",
    "global_intern_table",
    "scratch_store",
    "used_rows",
]
