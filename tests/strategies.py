"""Shared hypothesis strategies for BUU programs and interleavings.

The seed-based generator in :mod:`tests.histgen` sweeps diverse workloads
cheaply but cannot *shrink*: when a differential fails on seed 37, the
witness is a 400-operation history.  These strategies give hypothesis the
structure it needs to minimise — programs shrink toward fewer BUUs with
fewer steps, and the interleaving schedule shrinks toward serial order —
so a monitor/checker disagreement lands as a handful of operations that
fit in a failure message.

Used by the checker property tests, the monitor differentials and the
MOB property tests; settings profiles (``fast`` for CI, ``thorough`` for
nightly) are registered in :mod:`tests.conftest` and selected with the
``HYPOTHESIS_PROFILE`` environment variable.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.types import Operation, OpType

from tests.histgen import BuuProgram

_OP_KINDS = st.sampled_from((OpType.READ, OpType.WRITE))


@st.composite
def buu_programs(draw, max_buus: int = 6, max_steps: int = 5,
                 max_keys: int = 4) -> list[BuuProgram]:
    """A batch of BUU programs over a deliberately hot key space.

    Few keys and few BUUs is the regime where dependency cycles actually
    form; shrinking reduces BUU count, step count and key diversity.
    """
    num_buus = draw(st.integers(min_value=1, max_value=max_buus))
    num_keys = draw(st.integers(min_value=1, max_value=max_keys))
    keys = st.integers(min_value=0, max_value=num_keys - 1)
    programs = []
    for buu in range(num_buus):
        steps = draw(st.lists(st.tuples(_OP_KINDS, keys),
                              min_size=1, max_size=max_steps))
        prog = BuuProgram(buu)
        for kind, key in steps:
            (prog.read if kind is OpType.READ else prog.write)(f"k{key}")
        programs.append(prog)
    return programs


@st.composite
def interleavings(draw, programs=None, **program_kwargs) -> list[Operation]:
    """A complete history: drawn programs merged under a drawn schedule.

    The schedule is a permutation of program indices (one occurrence per
    step), so every interleaving that respects program order is reachable
    — and hypothesis shrinks the permutation toward the sorted schedule,
    i.e. toward a *serial* (anomaly-free) execution.  ``seq`` is the
    position in the merged order, matching the simulator's convention
    that same-item operations are totally ordered by ``seq``.
    """
    progs = draw(programs if programs is not None
                 else buu_programs(**program_kwargs))
    slots = [i for i, prog in enumerate(progs) for _ in prog.steps]
    schedule = draw(st.permutations(slots))
    cursors = [0] * len(progs)
    ops: list[Operation] = []
    for seq, idx in enumerate(schedule, start=1):
        kind, key = progs[idx].steps[cursors[idx]]
        cursors[idx] += 1
        ops.append(Operation(kind, progs[idx].buu, key, seq))
    return ops


@st.composite
def op_streams(draw, max_ops: int = 250, max_buus: int = 15,
               max_keys: int = 6) -> list[Operation]:
    """An unstructured operation stream (no program discipline).

    The MOB and collector property tests want raw churn rather than
    well-formed transactions; shrinking drops operations and narrows the
    BUU/key ranges.
    """
    triples = draw(st.lists(
        st.tuples(_OP_KINDS,
                  st.integers(min_value=0, max_value=max_buus - 1),
                  st.integers(min_value=0, max_value=max_keys - 1)),
        min_size=0, max_size=max_ops))
    return [Operation(kind, buu, key, seq)
            for seq, (kind, buu, key) in enumerate(triples, start=1)]


@st.composite
def linear_extensions(draw, **program_kwargs
                      ) -> tuple[list[Operation], list[Operation]]:
    """A history and a drawn arrival order of its operations that keeps
    each BUU's program order and each key's ``seq`` order: a linear
    extension of (per-BUU order ∪ per-key order).

    Operations keep their ``seq``.  Each step emits one of the
    operations whose BUU and key predecessors are out, listed in
    history order; the drawn index shrinks toward 0, i.e. toward the
    history itself.
    """
    ops = draw(interleavings(**program_kwargs))
    last: dict[tuple[str, object], int] = {}
    preds = []
    for i, op in enumerate(ops):
        preds.append([last[slot] for slot in (("buu", op.buu), ("key", op.key))
                      if slot in last])
        last["buu", op.buu] = last["key", op.key] = i
    out: list[Operation] = []
    done = [False] * len(ops)
    while len(out) < len(ops):
        ready = [i for i, pre in enumerate(preds)
                 if not done[i] and all(done[p] for p in pre)]
        pick = ready[draw(st.integers(0, len(ready) - 1))]
        done[pick] = True
        out.append(ops[pick])
    return ops, out
