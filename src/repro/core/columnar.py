"""Columnar operation batches + the vectorized collection kernel.

**No monitor feeds this module.**  It was the second implementation
behind ``RushMonConfig(columnar=True)``; that switch, the ``EdgeBatch``
detector feed and the cluster/checker columnar entry points were
retired once the fused pure-python ``handle_batch`` measured faster end
to end on every recording (interning every key of every operation
*before* sampling is the opposite of §5.1's premise that unsampled items
pay nothing).  What stays is what the performance ledger's
``columnar_leg`` times — the builders and the kernel — plus their
bit-exact differential, until that leg is dropped and this file with it
(DESIGN.md §13, ROADMAP item 1):

- :class:`OpBatch` — one batch of operations as parallel arrays
  (op-type code, interned key id, txn id, seq, read-value id) sharing a
  :class:`~repro.core.types.KeyInterner`, built from ``Operation``
  sequences (:meth:`OpBatch.from_ops`), raw columns
  (:meth:`OpBatch.from_columns`) or a decoded wire frame
  (:meth:`OpBatch.from_wire`).
- :class:`EdgeBatch` — derived dependency edges as parallel arrays
  (src, dst, kind code, label id, seq) plus the original op row each
  edge was attributed to, so the flattened edge stream is *exactly* the
  per-op emission order.
- Vectorized kernels: DCS sampling as one boolean gather per batch
  (bit-identical to the per-op :class:`~repro.core.collector.ItemSampler`
  decision stream — the sampler is a pure function of ``(key, salt,
  sr)``, so a per-key-id decision cache reproduces it exactly),
  per-key grouping via one stable argsort on the key-id column, and
  wr/ww/rw edge derivation (Section 2.1) as array ops.

Bit-exactness (the differential contract)
-----------------------------------------

The MOB kernel must consume the shard RNG in *exactly* the per-op draw
order: one reservoir coin per full-reservoir read and one ww-discard
coin per empty-count write, in original operation order.  Everything
*around* those draws is RNG-free and precomputable — read counts,
discard ratios (cumulative sums in op order), last-writer assignments
(segment gathers) — so the kernel runs one tight python loop over only
the coin-flipping rows, then derives edges and reservoir states from
the recorded outcomes.  ``tests/test_columnar.py`` enforces equality of
edges, counters and RNG end-state against the per-op path.

numpy is optional (``pip install repro[fast]``).  Without it,
:class:`OpBatch` stores plain lists and
``DataCentricCollector.handle_batch`` falls back to the per-op path via
:meth:`OpBatch.to_ops` — same results, no kernel.  With it, numpy is
imported by the function that first builds a column, never by importing
this module (DESIGN.md §13.2: every process that does not run the kernel
would pay ~0.1 s and ~12 MB for it).
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Sequence

from repro.core.types import Edge, EdgeType, KeyInterner, Operation, OpType

#: Whether the kernel can run — asked of the import system, which loads
#: nothing; each function below that needs numpy imports it itself.
HAVE_NUMPY = find_spec("numpy") is not None

__all__ = [
    "HAVE_NUMPY",
    "OP_READ",
    "OP_WRITE",
    "EdgeBatch",
    "OpBatch",
    "collect_columnar",
    "sample_mask",
]

#: Op-type codes of the ``op`` column (also the codec-2 wire codes).
OP_READ = 0
OP_WRITE = 1

_OP_BY_CODE = (OpType.READ, OpType.WRITE)
_KIND_BY_CODE = (EdgeType.WR, EdgeType.WW, EdgeType.RW)
_CODE_BY_KIND = {EdgeType.WR: 0, EdgeType.WW: 1, EdgeType.RW: 2}


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
    columns are ``ndarray``; without it they are plain lists and only
    :meth:`to_ops` interop is available (consumers fall back to the
    per-op path).
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
        """Materialize per-op ``Operation`` objects (the differential
        oracle path and the no-numpy fallback)."""
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


class EdgeBatch:
    """Derived dependency edges in struct-of-arrays layout.

    Rows are ordered exactly as the per-op collector would have emitted
    them (the kernels restore original-op order with one stable argsort
    on the attributing op row).  ``label`` holds interned key ids;
    consumers translate back through ``interner`` so downstream graph
    state is identical to the per-op path's raw-key labels.
    """

    __slots__ = ("src", "dst", "kind", "label", "seq", "interner",
                 "wr", "ww", "rw")

    def __init__(self, src, dst, kind, label, seq, interner: KeyInterner,
                 wr: int, ww: int, rw: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.label = label
        self.seq = seq
        self.interner = interner
        self.wr = wr
        self.ww = ww
        self.rw = rw

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def empty(cls, interner: KeyInterner) -> "EdgeBatch":
        if not HAVE_NUMPY:
            return cls([], [], [], [], [], interner, 0, 0, 0)
        import numpy as _np

        z = _np.empty(0, _np.int64)
        return cls(z, z, _np.empty(0, _np.uint8), z, z, interner, 0, 0, 0)

    def iter_rows(self):
        """Lazy ``(src, dst, kind, raw_key, seq)`` rows — the 5-tuple
        shape of :class:`~repro.core.types.Edge` — with labels
        translated back to raw keys through C-level ``map`` over the
        interner's id table."""
        if isinstance(self.src, list):
            srcs, dsts, kinds = self.src, self.dst, self.kind
            labels, seqs = self.label, self.seq
        else:
            srcs = self.src.tolist()
            dsts = self.dst.tolist()
            kinds = self.kind.tolist()
            labels = self.label.tolist()
            seqs = self.seq.tolist()
        return zip(srcs, dsts,
                   map(_KIND_BY_CODE.__getitem__, kinds),
                   map(self.interner._keys.__getitem__, labels), seqs)

    def tuple_rows(self) -> list[tuple]:
        """Materialized :meth:`iter_rows`."""
        return list(self.iter_rows())

    def to_edges(self) -> list[Edge]:
        """Materialize :class:`~repro.core.types.Edge` objects with raw
        keys (test/debug interop)."""
        new = tuple.__new__
        return [new(Edge, row) for row in self.tuple_rows()]


# -- sampling ------------------------------------------------------------------


def sample_mask(batch: OpBatch, sampler, cache: dict) -> "object | None":
    """The DCS chosen-item mask for ``batch``: one bool per row.

    Bit-identical to calling ``sampler.chosen(key)`` per op — the
    sampler is a pure function of ``(key, salt, sampling_rate)``, so
    decisions are computed once per *new* key id and gathered from a
    dense per-kid cache after that.  ``cache`` persists across batches
    (keyed state lives with the caller); it is invalidated whenever the
    interner identity or the sampler's salt changes (re-sampling).
    Returns ``None`` when every row is chosen (sr=1).
    """
    if sampler.sampling_rate == 1:
        return None
    import numpy as _np

    interner = batch.interner
    salt = sampler._salt
    if (cache.get("interner") is not interner or cache.get("salt") != salt
            or cache.get("rate") != sampler.sampling_rate):
        cache.clear()
        cache["interner"] = interner
        cache["salt"] = salt
        cache["rate"] = sampler.sampling_rate
        cache["decisions"] = _np.empty(0, bool)
    decisions = cache["decisions"]
    total = len(interner)
    if total > len(decisions):
        grown = _np.empty(total, bool)
        grown[: len(decisions)] = decisions
        chosen = sampler.chosen
        key_of = interner.key_of
        for kid in range(len(decisions), total):
            grown[kid] = chosen(key_of(kid))
        decisions = grown
        cache["decisions"] = decisions
    return decisions[batch.kid]


# -- the collection kernels ----------------------------------------------------


def collect_columnar(shard, batch: OpBatch, mask=None) -> EdgeBatch:
    """Run Algorithm 1/2 bookkeeping over ``batch`` on ``shard``'s
    state, returning the derived edges.  ``mask`` restricts to the
    chosen rows (``None`` = all).  Bit-identical to feeding the same
    (chosen) operations through ``shard.handle_batch`` per-op: same
    edges in the same order, same counters, same RNG end state.
    """
    op = batch.op
    kid = batch.kid
    buu = batch.buu
    seq = batch.seq
    if mask is not None:
        op = op[mask]
        kid = kid[mask]
        buu = buu[mask]
        seq = seq[mask]
    n = len(op)
    shard.touches += n
    if n == 0:
        return EdgeBatch.empty(batch.interner)
    if shard.mob:
        return _collect_mob(shard, batch.interner, op, kid, buu, seq, n)
    return _collect_full(shard, batch.interner, op, kid, buu, seq, n)


def _group_layout(kid, op, n):
    """Stable per-key grouping + per-segment layout shared by both
    kernels.  A *segment* is a maximal run of reads on one key closed by
    (at most) one write — exactly the unit Algorithm 1/2 bookkeeping
    resets on."""
    import numpy as _np

    order = _np.argsort(kid, kind="stable")
    kid_s = kid[order]
    isw_s = op[order] != OP_READ
    new_grp = _np.empty(n, bool)
    new_grp[0] = True
    if n > 1:
        _np.not_equal(kid_s[1:], kid_s[:-1], out=new_grp[1:])
    gidx = _np.cumsum(new_grp) - 1
    seg_start = new_grp.copy()
    if n > 1:
        seg_start[1:] |= isw_s[:-1]
    sidx = _np.cumsum(seg_start) - 1
    sstart = _np.flatnonzero(seg_start)
    return order, kid_s, isw_s, new_grp, gidx, sidx, sstart


def _gather_mob_state(items, ukeys):
    """Fetch (creating on first touch, like the per-op path) the MOB
    state of every key in the batch; returns parallel carry arrays."""
    import numpy as _np

    from repro.core.collector import _MobItemState

    states = []
    for key in ukeys:
        st = items.get(key)
        if st is None:
            st = _MobItemState()
            items[key] = st
        states.append(st)
    g_cnt = _as_i64([st.count for st in states])
    g_lw_has = _np.array([st.last_write is not None for st in states], bool)
    g_lw = _as_i64([st.last_write if st.last_write is not None else 0
                    for st in states])
    return states, g_cnt, g_lw_has, g_lw


def _collect_mob(shard, interner, op, kid, buu, seq, n) -> EdgeBatch:
    import numpy as _np

    slots = shard.mob_slots
    order, kid_s, isw_s, new_grp, gidx, sidx, sstart = _group_layout(kid, op, n)
    buu_s = buu[order]
    seq_s = seq[order]
    isr_s = ~isw_s

    ukeys = [interner.key_of(k) for k in kid_s[new_grp].tolist()]
    states, g_cnt, g_lw_has, g_lw = _gather_mob_state(shard._mob_items, ukeys)

    # Per-row read count (carry included): for reads the count *after*
    # the increment, for writes the count the write observes.
    seg_gidx = gidx[sstart]
    first_seg = new_grp[sstart]
    rcum_e = _np.cumsum(isr_s) - isr_s
    rbase = rcum_e[sstart]
    carry_add = _np.where(first_seg, g_cnt[seg_gidx], 0)
    count = rcum_e - rbase[sidx] + carry_add[sidx] + isr_s

    # Last writer per segment: the write that closed the previous
    # segment of the same group, or the carried last_write for a
    # group's first segment.
    prev = sstart - 1
    lw_seg = _np.where(first_seg, g_lw[seg_gidx], buu_s[prev])
    lw_has_seg = _np.where(first_seg, g_lw_has[seg_gidx], True)
    lw_row = lw_seg[sidx]
    lw_has_row = lw_has_seg[sidx]

    # Live discard ratio at each row, in *original* op order (the ww
    # coin reads running totals exactly as the per-op loop does).
    row_s = order
    isr_o = op == OP_READ
    cnt_o = _np.empty(n, _np.int64)
    cnt_o[row_s] = count
    isw_o = ~isr_o
    inc_o = _np.where(isw_o & (cnt_o > 0),
                      _np.maximum(cnt_o - slots, 0), 0)
    tcum = shard.total_reads + _np.cumsum(isr_o) - isr_o
    dcum = shard.discarded_reads + _np.cumsum(inc_o) - inc_o
    ratio_o = _np.divide(dcum, tcum, out=_np.zeros(n, float),
                         where=tcum > 0)

    # -- the RNG pass: original op order, coin rows only -----------------------
    read_draw_s = isr_s & (count > slots)
    write_coin_s = isw_s & (count == 0)
    coin_o = _np.zeros(n, bool)
    coin_o[row_s] = read_draw_s | write_coin_s
    keep_o = _np.zeros(n, bool)
    hit_o = _np.zeros(n, bool)
    hit_pos: dict[int, int] = {}
    coin_rows = _np.flatnonzero(coin_o)
    if len(coin_rows):
        rng_random = shard._rng.random
        rng_randrange = shard._rng.randrange
        for r, w, c, q in zip(coin_rows.tolist(),
                              isw_o[coin_rows].tolist(),
                              cnt_o[coin_rows].tolist(),
                              ratio_o[coin_rows].tolist()):
            if w:
                keep_o[r] = rng_random() >= q
            else:
                if rng_random() < slots / c:
                    hit_o[r] = True
                    hit_pos[r] = rng_randrange(slots)

    # -- reservoir evolution + rw emission (interesting rows only) -------------
    hit_s = hit_o[row_s]
    rw_write_s = isw_s & (count > 0)
    append_s = isr_s & (count <= slots)
    interesting = append_s | hit_s | rw_write_s
    rw_src: list[int] = []
    rw_dst: list[int] = []
    rw_lab: list[int] = []
    rw_seq: list[int] = []
    rw_row: list[int] = []
    tail_res: dict[int, list] = {}
    rows = _np.flatnonzero(interesting)
    if len(rows):
        first_seg_row = first_seg[sidx]
        cur_g = -1
        cur_s = -1
        res: list = []
        for g, s, b, w, fs, lab, sq, orig in zip(
                gidx[rows].tolist(),
                sidx[rows].tolist(),
                buu_s[rows].tolist(),
                isw_s[rows].tolist(),
                first_seg_row[rows].tolist(),
                kid_s[rows].tolist(),
                seq_s[rows].tolist(),
                row_s[rows].tolist()):
            if g != cur_g:
                if cur_g >= 0:
                    tail_res[cur_g] = res
                cur_g = g
                cur_s = s
                res = list(states[g].reads) if fs else []
            elif s != cur_s:
                cur_s = s
                res = []
            if w:
                for reader in dict.fromkeys(res):
                    if reader != b:
                        rw_src.append(reader)
                        rw_dst.append(b)
                        rw_lab.append(lab)
                        rw_seq.append(sq)
                        rw_row.append(orig)
                res = []
            elif hit_o[orig]:
                res[hit_pos[orig]] = b
            else:
                res.append(b)
        tail_res[cur_g] = res
    shard.stats.rw += len(rw_src)

    # -- vectorized wr / ww emission -------------------------------------------
    wr_mask = isr_s & lw_has_row & (lw_row != buu_s)
    keep_s = keep_o[row_s]
    ww_mask = write_coin_s & keep_s & lw_has_row & (lw_row != buu_s)
    shard.stats.wr += int(wr_mask.sum())
    shard.stats.ww += int(ww_mask.sum())

    # -- counter + per-item state writeback ------------------------------------
    shard.total_reads += int(isr_o.sum())
    shard.discarded_reads += int(inc_o.sum())
    ar = _np.arange(n)
    gend = _np.empty(len(states), _np.intp)
    gend[gidx] = ar  # last sorted row of each group wins
    base = gidx * (n + 1)
    lastw = _np.maximum.accumulate(_np.where(isw_s, base + ar + 1, base))
    lastw_at_end = (lastw - base)[gend] - 1  # -1 = group saw no write
    final_cnt = _np.where(isw_s[gend], 0, count[gend]).tolist()
    has_w = lastw_at_end >= 0
    last_w_buu = buu_s[_np.maximum(lastw_at_end, 0)].tolist()
    has_w_l = has_w.tolist()
    for g, st in enumerate(states):
        st.count = final_cnt[g]
        if has_w_l[g]:
            st.last_write = last_w_buu[g]
        res = tail_res.get(g)
        if res is not None:
            st.reads = res
        # untouched groups keep their carried reservoir; the count
        # update above is the only state their reads observed.

    return _assemble_edges(interner, shard, wr_mask, ww_mask,
                           lw_row, buu_s, kid_s, seq_s, row_s,
                           rw_src, rw_dst, rw_lab, rw_seq, rw_row)


def _collect_full(shard, interner, op, kid, buu, seq, n) -> EdgeBatch:
    """Full ``readIDs`` bookkeeping (DCS without MOB).  wr edges and all
    counts are vectorized; rw emission walks python sets per segment
    because the per-op path iterates a real ``set`` (hash order) and
    bit-exactness requires reproducing that iteration exactly."""
    import numpy as _np

    from repro.core.collector import _FullItemState

    order, kid_s, isw_s, new_grp, gidx, sidx, sstart = _group_layout(kid, op, n)
    buu_s = buu[order]
    seq_s = seq[order]
    isr_s = ~isw_s
    row_s = order

    items = shard._full_items
    ukeys = [interner.key_of(k) for k in kid_s[new_grp].tolist()]
    states = []
    for key in ukeys:
        st = items.get(key)
        if st is None:
            st = _FullItemState()
            items[key] = st
        states.append(st)
    g_lw_has = _np.array([st.last_write is not None for st in states], bool)
    g_lw = _as_i64([st.last_write if st.last_write is not None else 0
                    for st in states])

    seg_gidx = gidx[sstart]
    first_seg = new_grp[sstart]
    prev = sstart - 1
    lw_seg = _np.where(first_seg, g_lw[seg_gidx], buu_s[prev])
    lw_has_seg = _np.where(first_seg, g_lw_has[seg_gidx], True)
    lw_row = lw_seg[sidx]
    lw_has_row = lw_has_seg[sidx]

    wr_mask = isr_s & lw_has_row & (lw_row != buu_s)
    shard.stats.wr += int(wr_mask.sum())
    shard.total_reads += int(isr_s.sum())

    # Per-segment reader sets: built in op order (insertion order equals
    # the per-op path's set mutation order, so iteration order matches).
    rw_src: list[int] = []
    rw_dst: list[int] = []
    rw_lab: list[int] = []
    rw_seq: list[int] = []
    rw_row: list[int] = []
    ww_rows: list[int] = []  # sorted-row indexes of emitted ww edges
    first_seg_row = first_seg[sidx]
    cur_g = -1
    cur_s = -1
    readers: set = set()
    stats = shard.stats
    for i, g, s, b, w, fs, lab, sq, orig in zip(
            range(n),
            gidx.tolist(),
            sidx.tolist(),
            buu_s.tolist(),
            isw_s.tolist(),
            first_seg_row.tolist(),
            kid_s.tolist(),
            seq_s.tolist(),
            row_s.tolist()):
        if g != cur_g:
            if cur_g >= 0:
                states[cur_g].read_ids = readers
            cur_g = g
            cur_s = s
            readers = states[g].read_ids if fs else set()
        elif s != cur_s:
            cur_s = s
            readers = set()
        if w:
            if readers:
                for reader in readers:
                    if reader != b:
                        rw_src.append(reader)
                        rw_dst.append(b)
                        rw_lab.append(lab)
                        rw_seq.append(sq)
                        rw_row.append(orig)
                readers = set()
            else:
                ww_rows.append(i)
        else:
            readers.add(b)
    if cur_g >= 0:
        states[cur_g].read_ids = readers
    stats.rw += len(rw_src)

    ww_mask = _np.zeros(n, bool)
    if ww_rows:
        ww_mask[ww_rows] = True
        ww_mask &= lw_has_row & (lw_row != buu_s)
    stats.ww += int(ww_mask.sum())

    # last_write writeback (groups that saw a write).
    ar = _np.arange(n)
    gend = _np.empty(len(states), _np.intp)
    gend[gidx] = ar
    base = gidx * (n + 1)
    lastw = _np.maximum.accumulate(_np.where(isw_s, base + ar + 1, base))
    lastw_at_end = (lastw - base)[gend] - 1
    has_w = (lastw_at_end >= 0).tolist()
    last_w_buu = buu_s[_np.maximum(lastw_at_end, 0)].tolist()
    for g, st in enumerate(states):
        if has_w[g]:
            st.last_write = last_w_buu[g]

    return _assemble_edges(interner, shard, wr_mask, ww_mask,
                           lw_row, buu_s, kid_s, seq_s, row_s,
                           rw_src, rw_dst, rw_lab, rw_seq, rw_row)


def _assemble_edges(interner, shard, wr_mask, ww_mask, lw_row, buu_s,
                    kid_s, seq_s, row_s, rw_src, rw_dst, rw_lab,
                    rw_seq, rw_row) -> EdgeBatch:
    """Merge the three per-kind edge sets back into original-op order
    with one stable argsort on the attributing op row (rw edges of one
    write stay in their ``dict.fromkeys`` order — ties are stable)."""
    import numpy as _np

    n_wr = int(wr_mask.sum())
    n_ww = int(ww_mask.sum())
    n_rw = len(rw_src)
    src = _np.concatenate([lw_row[wr_mask], lw_row[ww_mask],
                           _as_i64(rw_src)])
    dst = _np.concatenate([buu_s[wr_mask], buu_s[ww_mask],
                           _as_i64(rw_dst)])
    kind = _np.concatenate([
        _np.zeros(n_wr, _np.uint8),
        _np.ones(n_ww, _np.uint8),
        _np.full(n_rw, 2, _np.uint8),
    ])
    label = _np.concatenate([kid_s[wr_mask], kid_s[ww_mask],
                             _as_i64(rw_lab)])
    seq = _np.concatenate([seq_s[wr_mask], seq_s[ww_mask],
                           _as_i64(rw_seq)])
    roworder = _np.concatenate([row_s[wr_mask], row_s[ww_mask],
                                _np.asarray(rw_row, _np.intp)])
    o = _np.argsort(roworder, kind="stable")
    return EdgeBatch(src[o], dst[o], kind[o], label[o], seq[o],
                     interner, n_wr, n_ww, n_rw)
