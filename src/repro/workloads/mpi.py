"""Message-passing (MPI-style) process-group workloads.

Every earlier workload is a small shared-memory kernel; these are the
process-group programs the parallel dynamic graph (§6.1) was built to
explain — scatter/gather, ring all-reduce, broadcast trees, and
master-worker farms, parameterized by rank count so the scheduler, log
format, happened-before test, and race scan run at 10-100× the original
process counts.

Each generator emits one PCL procedure per rank (PCL channels are static
names, exactly like an MPI communicator wired at startup), with data
derived deterministically from the rank so every rank's *behaviour* is a
pure function of the program text, not of the schedule.  That property is
what :mod:`repro.analysis.localize` exploits: the ranks of one family are
behavioural replicas, so a process whose event subgraph deviates from the
group consensus is the suspect.

Faults
------
Every generator takes ``deviant`` (a rank index) and ``fault`` (a kind
from its ``FAULTS`` set) and seeds exactly one faulty process:

* ``wrong_op``     — the deviant reduces with the wrong operator (the
  classic transcription bug of Okita/Ino/Hagihara's AADEBUG'03 tool);
* ``skew``         — the deviant works a skewed partition (wrong loop
  bound over its chunk);
* ``drop_result``  — the deviant silently drops one result message (the
  farm protocol is sentinel-terminated, so nothing deadlocks);
* ``extra_ack``    — the deviant acknowledges a broadcast twice.

Value faults (``wrong_op``) would be invisible to a purely structural
signature, so every rank folds its local result through a bit-count
normalization loop before reporting — the per-process work then depends
on the value, the way real MPI kernels iterate until convergence.
"""

from __future__ import annotations

from typing import Optional

#: family name -> (generator, supported fault kinds); see :func:`mpi_workload`.
MPI_FAMILIES = {}


def _family(faults: frozenset):
    def register(fn):
        MPI_FAMILIES[fn.__name__] = (fn, faults)
        fn.FAULTS = faults
        return fn

    return register


def _check_fault(name: str, ranks: int, deviant: Optional[int], fault: str, faults):
    if deviant is None:
        return
    if not 0 <= deviant < ranks:
        raise ValueError(f"{name}: deviant rank {deviant} out of range 0..{ranks - 1}")
    if fault not in faults:
        raise ValueError(
            f"{name}: unknown fault {fault!r} (supported: {', '.join(sorted(faults))})"
        )


#: The bit-count normalization loop every rank folds its result through.
#: Its trip count is the bit length of the reduced value, so a value-level
#: fault (wrong reduce op) becomes a *work*-level deviation the localizer
#: can see in the deviant's internal edges.
_NORMALIZE = """
func int checksum(int v) {
    int t = v;
    if (t < 0) {
        t = -t;
    }
    int c = 0;
    while (t > 0) {
        c = c + t % 2;
        t = t / 2;
    }
    return c;
}
"""


@_family(frozenset({"wrong_op", "skew"}))
def scatter_gather(
    ranks: int = 8,
    items: int = 4,
    deviant: Optional[int] = None,
    fault: str = "wrong_op",
) -> str:
    """Root scatters a chunk to every rank; ranks reduce and gather back.

    Rank *r* receives ``items`` values (deterministic in *r*), reduces
    them with ``+``, normalizes, and sends the pair (partial, checksum)
    back on its own result channel; the root gathers in rank order.
    """
    _check_fault("scatter_gather", ranks, deviant, fault, scatter_gather.FAULTS)
    chans, procs, spawns = [], [], []
    for r in range(ranks):
        chans.append(f"chan task{r}[{items}];")
        chans.append(f"chan res{r}[2];")
        op = "*" if (deviant == r and fault == "wrong_op") else "+"
        bound = f"{items} / 2" if (deviant == r and fault == "skew") else str(items)
        procs.append(
            f"""
proc rank{r}() {{
    int chunk[{items}];
    for (k = 0; k < {items}; k = k + 1) {{
        chunk[k] = recv(task{r});
    }}
    int acc = 1;
    for (k = 0; k < {bound}; k = k + 1) {{
        acc = acc {op} chunk[k];
    }}
    send(res{r}, acc);
    send(res{r}, checksum(acc));
}}"""
        )
        spawns.append(f"spawn rank{r}();")
    # Chunk values 4..8: every rank's clean reduction lands in the same
    # bit-length band (acc in [23, 27] for the default items=4), so clean
    # checksum loops run identical trip counts across ranks while a faulty
    # reduction still lands far outside the band.
    scatter = "\n    ".join(
        f"for (k = 0; k < {items}; k = k + 1) {{ send(task{r}, ({r} + k) % 5 + 4); }}"
        for r in range(ranks)
    )
    gather = "\n    ".join(
        f"total = total + recv(res{r}); checks = checks + recv(res{r});"
        for r in range(ranks)
    )
    return f"""
{chr(10).join(chans)}
{_NORMALIZE}
{"".join(procs)}

proc main() {{
    {chr(10).join("    " + s for s in spawns).lstrip()}
    {scatter}
    int total = 0;
    int checks = 0;
    {gather}
    join();
    print("total =", total, "checks =", checks);
}}
"""


@_family(frozenset({"wrong_op"}))
def ring_allreduce(
    ranks: int = 8,
    deviant: Optional[int] = None,
    fault: str = "wrong_op",
) -> str:
    """A ring all-reduce: each rank forwards around the ring ``ranks - 1``
    times, accumulating every peer's contribution into its local sum.

    The forwarded value stream is untouched by the fault (the deviant
    forwards correctly but accumulates with the wrong operator), so only
    the deviant's own behaviour deviates — the hard localization case.
    """
    _check_fault("ring_allreduce", ranks, deviant, fault, ring_allreduce.FAULTS)
    chans, procs, spawns = [], [], []
    for r in range(ranks):
        # link{r} carries messages from rank r to rank (r+1) % ranks;
        # capacity 1 so a full round of sends completes before the recvs.
        chans.append(f"chan link{r}[1];")
        chans.append(f"chan out{r}[2];")
    for r in range(ranks):
        prev = (r - 1) % ranks
        op = "-" if (deviant == r and fault == "wrong_op") else "+"
        procs.append(
            f"""
proc rank{r}() {{
    int own = {r} + 2;
    int acc = own;
    int carry = own;
    for (s = 0; s < {ranks - 1}; s = s + 1) {{
        send(link{r}, carry);
        carry = recv(link{prev});
        acc = acc {op} carry;
    }}
    send(out{r}, acc);
    send(out{r}, checksum(acc));
}}"""
        )
        spawns.append(f"spawn rank{r}();")
    gather = "\n    ".join(
        f"total = total + recv(out{r}); checks = checks + recv(out{r});"
        for r in range(ranks)
    )
    return f"""
{chr(10).join(chans)}
{_NORMALIZE}
{"".join(procs)}

proc main() {{
    {chr(10).join("    " + s for s in spawns).lstrip()}
    int total = 0;
    int checks = 0;
    {gather}
    join();
    print("total =", total, "checks =", checks);
}}
"""


@_family(frozenset({"extra_ack", "wrong_op"}))
def broadcast_tree(
    ranks: int = 8,
    payload: int = 21,
    deviant: Optional[int] = None,
    fault: str = "extra_ack",
) -> str:
    """A binary broadcast tree: rank 0 originates, every rank forwards to
    its child slots (2r+1, 2r+2) and acknowledges to the root's collector.

    The tree is *padded*: child slots past the last rank are buffered
    channels nobody reads, so every rank executes the same forward
    pattern whether it is an interior node or a leaf — the ranks stay
    behavioural replicas and the localizer's peer group is homogeneous
    (the root, which receives nothing, gets its own proc name and is
    skipped as a singleton group).

    ``extra_ack`` double-acknowledges (a protocol deviation visible in the
    deviant's sync-op sequence); ``wrong_op`` acknowledges a corrupted
    checksum of the payload (a work deviation, the payload itself is
    forwarded intact so the subtree stays healthy).
    """
    _check_fault("broadcast_tree", ranks, deviant, fault, broadcast_tree.FAULTS)
    chans, procs, spawns = [], [], []
    chans.append(f"chan ack[{ranks + 2}];")
    # Real tree edges are down1..down{ranks-1}; the rest are the padding
    # slots (same canonical name down#, so signatures stay comparable).
    for c in range(1, 2 * ranks + 3):
        chans.append(f"chan down{c}[1];")
    for r in range(ranks):
        get = f"int v = {payload};" if r == 0 else f"int v = recv(down{r});"
        forwards = "\n    ".join(
            f"send(down{c}, v);" for c in (2 * r + 1, 2 * r + 2)
        )
        if deviant == r and fault == "wrong_op":
            acked = "checksum(v * v + 1)"
        else:
            acked = "checksum(v)"
        acks = f"send(ack, {acked});"
        if deviant == r and fault == "extra_ack":
            acks += f"\n    send(ack, {acked});"
        name = "root" if r == 0 else f"rank{r}"
        procs.append(
            f"""
proc {name}() {{
    {get}
    {forwards}
    {acks}
}}"""
        )
        spawns.append(f"spawn {name}();")
    return f"""
{chr(10).join(chans)}
{_NORMALIZE}
{"".join(procs)}

proc main() {{
    {chr(10).join("    " + s for s in spawns).lstrip()}
    int checks = 0;
    for (k = 0; k < {ranks}; k = k + 1) {{
        checks = checks + recv(ack);
    }}
    join();
    print("checks =", checks);
}}
"""


@_family(frozenset({"drop_result", "skew"}))
def master_worker(
    workers: int = 8,
    tasks: int = 3,
    deviant: Optional[int] = None,
    fault: str = "drop_result",
) -> str:
    """A master-worker farm: the master deals ``tasks`` tasks to each
    worker, workers grind each task and stream results back, terminated
    by a ``-1`` sentinel so a dropped result never deadlocks the farm.

    A semaphore-guarded shared progress counter rides along so the race
    scan has real shared-memory traffic to prove ordered at scale.
    """
    _check_fault("master_worker", workers, deviant, fault, master_worker.FAULTS)
    chans, procs, spawns = [], [], []
    for w in range(workers):
        chans.append(f"chan job{w}[{tasks}];")
        chans.append(f"chan result{w}[{tasks + 1}];")
        grind = "3" if (deviant == w and fault == "skew") else "1"
        drop = deviant == w and fault == "drop_result"
        emit = (
            f"if (t < {tasks} - 1) {{ send(result{w}, r); }}"
            if drop
            else f"send(result{w}, r);"
        )
        procs.append(
            f"""
proc worker{w}() {{
    for (t = 0; t < {tasks}; t = t + 1) {{
        int task = recv(job{w});
        int r = 0;
        for (g = 0; g < task * {grind}; g = g + 1) {{
            r = r + checksum(task + g);
        }}
        {emit}
        P(progress_sem);
        progress = progress + 1;
        V(progress_sem);
    }}
    send(result{w}, -1);
}}"""
        )
        spawns.append(f"spawn worker{w}();")
    deal = "\n    ".join(
        f"for (t = 0; t < {tasks}; t = t + 1) {{ send(job{w}, {w} % 3 + t + 2); }}"
        for w in range(workers)
    )
    drain = "\n    ".join(
        f"""r{w} = recv(result{w});
    while (r{w} != -1) {{ total = total + r{w}; r{w} = recv(result{w}); }}"""
        for w in range(workers)
    )
    decls = "\n    ".join(f"int r{w};" for w in range(workers))
    return f"""
shared int progress;
sem progress_sem = 1;
{chr(10).join(chans)}
{_NORMALIZE}
{"".join(procs)}

proc main() {{
    {chr(10).join("    " + s for s in spawns).lstrip()}
    {deal}
    int total = 0;
    {decls}
    {drain}
    join();
    print("total =", total, "progress =", progress);
}}
"""


def mpi_workload(
    family: str,
    ranks: int = 8,
    deviant: Optional[int] = None,
    fault: Optional[str] = None,
    **kwargs,
) -> str:
    """Generate one family by name (``scatter_gather``/``ring_allreduce``/
    ``broadcast_tree``/``master_worker``); ``fault=None`` picks the
    family's first supported kind when a deviant is requested."""
    if family not in MPI_FAMILIES:
        raise ValueError(
            f"unknown MPI workload family {family!r} "
            f"(have: {', '.join(sorted(MPI_FAMILIES))})"
        )
    generator, faults = MPI_FAMILIES[family]
    if fault is None:
        fault = sorted(faults)[0]
    return generator(ranks, deviant=deviant, fault=fault, **kwargs)
