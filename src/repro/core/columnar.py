"""Columnar operation batches.

**No monitor feeds this module.**  It was the second implementation
behind ``RushMonConfig(columnar=True)``, with a vectorized numpy
collection kernel; the switch, and then the kernel, were retired because
the fused pure-python ``handle_batch`` measured faster end to end
(interning every key of every operation *before* sampling is the
opposite of §5.1's premise that unsampled items pay nothing).  What
stays is what the performance ledger's ``columnar_leg`` times, until
that leg is dropped and this file with it (DESIGN.md §13):

- :class:`OpBatch` — one batch of operations as parallel arrays
  (op-type code, interned key id, txn id, seq, read-value id) sharing a
  :class:`~repro.core.types.KeyInterner`, built from ``Operation``
  sequences (:meth:`OpBatch.from_ops`), raw columns
  (:meth:`OpBatch.from_columns`) or a decoded wire frame
  (:meth:`OpBatch.from_wire`).  Iterating one yields its operations, so
  ``DataCentricCollector.handle_batch`` takes it like any other
  iterable of operations.

numpy is optional (``pip install repro[fast]``): with it the columns are
``ndarray``, without it plain lists.  numpy is imported by the function
that first builds a column, never by importing this module (DESIGN.md
§13.2: every process that does not build one would pay ~0.1 s and
~12 MB for it).
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Iterator, Sequence

from repro.core.types import KeyInterner, Operation, OpType

#: Whether the columns are numpy arrays — asked of the import system,
#: which loads nothing; each function below that needs numpy imports it
#: itself.
HAVE_NUMPY = find_spec("numpy") is not None

__all__ = [
    "HAVE_NUMPY",
    "OP_READ",
    "OP_WRITE",
    "OpBatch",
]

#: Op-type codes of the ``op`` column (also the codec-2 wire codes).
OP_READ = 0
OP_WRITE = 1

_OP_BY_CODE = (OpType.READ, OpType.WRITE)


def _as_i64(values):
    import numpy as _np

    return _np.asarray(values, dtype=_np.int64)


class OpBatch:
    """A batch of read/write operations in struct-of-arrays layout.

    Columns (parallel, one row per operation):

    ``op``    op-type code (:data:`OP_READ` / :data:`OP_WRITE`), uint8
    ``kid``   interned key id (dense, first-seen order), int64
    ``buu``   transaction (BUU) id, int64
    ``seq``   storage visibility sequence number, int64
    ``val``   read-value id, int64 (reserved: the repro's operation
              model carries no values yet, so builders fill zeros; the
              column exists so version-order recovery can ride the same
              layout and wire frame later)

    ``interner`` maps ``kid`` back to the raw key.  With numpy the
    columns are ``ndarray``; without it they are plain lists.  Iterating
    a batch yields its operations (:meth:`to_ops`).
    """

    __slots__ = ("op", "kid", "buu", "seq", "val", "interner")

    def __init__(self, op, kid, buu, seq, val, interner: KeyInterner) -> None:
        self.op = op
        self.kid = kid
        self.buu = buu
        self.seq = seq
        self.val = val
        self.interner = interner

    def __len__(self) -> int:
        return len(self.op)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.to_ops())

    # -- builders --------------------------------------------------------------

    @classmethod
    def from_columns(cls, op, kid, buu, seq, interner: KeyInterner,
                     val=None) -> "OpBatch":
        """Wrap raw columns (the codec-2 decode path and workload
        generators land here — no per-op object is ever built)."""
        if HAVE_NUMPY:
            import numpy as _np

            op = _np.asarray(op, dtype=_np.uint8)
            kid = _as_i64(kid)
            buu = _as_i64(buu)
            seq = _as_i64(seq)
            val = _np.zeros(len(op), _np.int64) if val is None else _as_i64(val)
        else:
            op = list(op)
            kid = list(kid)
            buu = list(buu)
            seq = list(seq)
            val = [0] * len(op) if val is None else list(val)
        return cls(op, kid, buu, seq, val, interner)

    @classmethod
    def from_ops(cls, ops: Sequence[Operation],
                 interner: KeyInterner | None = None) -> "OpBatch":
        """Build from ``Operation`` objects, interning keys as they are
        first seen (so key ids are dense in first-appearance order)."""
        if interner is None:
            interner = KeyInterner()
        read = OpType.READ
        intern = interner.intern
        op = [OP_READ if o.op is read else OP_WRITE for o in ops]
        kid = [intern(o.key) for o in ops]
        buu = [o.buu for o in ops]
        seq = [o.seq for o in ops]
        return cls.from_columns(op, kid, buu, seq, interner)

    @classmethod
    def from_wire(cls, events, interner: KeyInterner
                  ) -> "tuple[OpBatch, list[tuple]]":
        """Split a decoded codec-2 frame into an op batch plus its
        lifecycle rows.

        ``events`` is any column struct with the
        :class:`repro.net.protocol.ColumnarEvents` shape (``op`` codes
        0=r/1=w/2=begin/3=commit, ``buu``, ``kidx`` frame-key-table
        indices, ``seq``, ``keys`` table).  The frame's key table is
        interned once (one :meth:`KeyInterner.intern` per *distinct*
        frame key) and op rows gather their global kid through it — no
        per-op object or per-op hash is computed.  Returns the batch
        and the lifecycle rows as ``("b"|"c", buu, time)`` tuples in
        frame order.
        """
        frame_kids = interner.intern_many(events.keys)
        op_col: list[int] = []
        kid_col: list[int] = []
        buu_col: list[int] = []
        seq_col: list[int] = []
        lifecycle = []
        for code, b, ki, s in zip(events.op, events.buu, events.kidx,
                                  events.seq):
            if code < 2:
                op_col.append(code)
                kid_col.append(frame_kids[ki])
                buu_col.append(b)
                seq_col.append(s)
            else:
                lifecycle.append(("b" if code == 2 else "c", b, s))
        return (cls.from_columns(op_col, kid_col, buu_col, seq_col, interner),
                lifecycle)

    # -- interop ---------------------------------------------------------------

    def to_ops(self) -> list[Operation]:
        """Materialize per-op ``Operation`` objects."""
        keys = self.interner
        ops = self.op if isinstance(self.op, list) else self.op.tolist()
        kids = self.kid if isinstance(self.kid, list) else self.kid.tolist()
        buus = self.buu if isinstance(self.buu, list) else self.buu.tolist()
        seqs = self.seq if isinstance(self.seq, list) else self.seq.tolist()
        by_code = _OP_BY_CODE
        key_of = keys.key_of
        new = tuple.__new__
        return [
            new(Operation, (by_code[o], b, key_of(k), s))
            for o, k, b, s in zip(ops, kids, buus, seqs)
        ]
