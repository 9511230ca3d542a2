"""Deeply nested PCL and deep records, checked at the default recursion limit.

The parser refuses a program nested deeper than
:data:`repro.lang.parser.MAX_NESTING`; below that bound every later pass
must run inside the interpreter's default recursion limit, and queries
whose depth follows the record (flowback, rendering, cycle searches)
must not recurse at all.  The test oracle raises the limit for the whole
pytest process when it is imported, so :func:`probe` runs in a fresh
interpreter::

    PYTHONPATH=src python -m tests.nesting DIR

It prints one JSON report, which ``tests/test_recursion_limit.py``
reads.  *DIR* receives the ``.pcl`` files the ``ppd`` runs read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from repro.lang.errors import ParseError
from repro.lang.parser import parse


def parens(n: int) -> str:
    return "proc main() { int x = " + "(" * n + "1" + ")" * n + "; print(x); }\n"


def calls(n: int) -> str:
    return (
        "func int f(int a) { return a; }\n"
        "proc main() { int x = " + "f(" * n + "1" + ")" * n + "; print(x); }\n"
    )


def unary(n: int) -> str:
    return "proc main() { int x = " + "- " * n + "1; print(x); }\n"


def chain(n: int) -> str:
    """A sum of n + 1 terms: n operators."""
    return "proc main() { int x = " + " + ".join(["1"] * (n + 1)) + "; print(x); }\n"


def ifs(n: int) -> str:
    return (
        "proc main() { int x = 0; " + "if (x < 1) { " * n + "x = x + 1; "
        + "} " * n + "print(x); }\n"
    )


def whiles(n: int) -> str:
    return (
        "proc main() { int x = 0; " + "while (x < 1) { " * n + "x = x + 1; "
        + "} " * n + "print(x); }\n"
    )


def else_ifs(n: int) -> str:
    rungs = "".join(f"else if (x == {k}) {{ x = {k}; }} " for k in range(1, n + 1))
    return "proc main() { int x = 0; if (x == 0) { x = 1; } " + rungs + "print(x); }\n"


#: Shape name -> generator of a program nested n times that way.
SHAPES = {
    "parens": parens,
    "calls": calls,
    "unary": unary,
    "chain": chain,
    "ifs": ifs,
    "whiles": whiles,
    "else_ifs": else_ifs,
}


def parses(source: str) -> bool:
    try:
        parse(source)
    except ParseError:
        return False
    return True


def deepest(make) -> int:
    """The largest n for which ``make(n)`` parses (bisection)."""
    low, high = 0, 1000
    while low < high:
        middle = (low + high + 1) // 2
        if parses(make(middle)):
            low = middle
        else:
            high = middle - 1
    return low


#: A 1,500-iteration dependence chain for a deep ``back`` query.
CHAIN_1500 = """proc main() {
    int x = 0;
    int i = 0;
    while (i < 1500) {
        x = x + i;
        i = i + 1;
    }
    print(x);
}
"""


def lock_ring(count: int) -> str:
    """*count* processes, each holding its own lock and then waiting for
    the next one's: a circular wait as long as the ring."""
    locks = "\n".join(f"lockvar l{k};" for k in range(count))
    procs = "\n".join(
        f"proc p{k}() {{ lock(l{k}); V(ready); P(go); lock(l{(k + 1) % count}); }}"
        for k in range(count)
    )
    spawns = "\n    ".join(f"spawn p{k}();" for k in range(count))
    return f"""sem ready = 0;
sem go = 0;
{locks}
{procs}
proc main() {{
    int k = 0;
    {spawns}
    for (k = 0; k < {count}; k = k + 1) {{ P(ready); }}
    for (k = 0; k < {count}; k = k + 1) {{ V(go); }}
    join();
}}
"""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the fresh-interpreter probe ------------------------------------------------


def _at_depth(frames: int, fn):
    """Call *fn* from a stack *frames* Python frames deeper than this one."""
    if frames <= 0:
        return fn()
    return _at_depth(frames - 1, fn)


def _outcome(fn) -> str:
    try:
        _at_depth(200, fn)
    except RecursionError:
        return "RecursionError"
    except Exception as error:  # noqa: BLE001 - reported, not raised
        return f"{type(error).__name__}: {error}"
    return "ok"


def _ppd(argv: list[str]) -> tuple[int, str, str]:
    """``ppd`` in this process: (exit code, stdout, stderr)."""
    from repro.ppd import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _passes(source: str) -> dict[str, str]:
    """Every pass over *source*, each from a stack 200 frames deep."""
    from repro.analysis.lint import lint_compiled
    from repro.compiler.compile import compile_program
    from repro.core.cli import PPDCommandLine
    from repro.lang.pretty import program_to_str
    from repro.runtime.machine import Machine
    from repro.runtime.persist import record_from_json, record_to_json
    from repro.vm.disasm import disassemble_program

    compiled = compile_program(source)

    def lower():
        code = compiled.vm_code()
        for proc in compiled.program.procs:
            code.proc(proc.name)

    def session():
        record = Machine(compile_program(source), seed=0, mode="logged").run()
        assert record.failure is None, record.failure
        cli = PPDCommandLine(record_from_json(record_to_json(record)))
        for line in ("where", "why x", "races", "lint"):
            answer = cli.execute(line)
            assert not answer.startswith("error:"), (line, answer)

    return {
        "parse": _outcome(lambda: parse(source)),
        "pretty": _outcome(lambda: program_to_str(parse(source))),
        "compile": _outcome(lambda: compile_program(source)),
        "lower": _outcome(lower),
        "static graph": _outcome(lambda: compiled.static_graph),
        "lint": _outcome(lambda: lint_compiled(compile_program(source)).render()),
        "disasm": _outcome(lambda: disassemble_program(compiled, annotate=True)),
        "run, save, load, session": _outcome(session),
    }


def _past_the_bound(source: str, path: Path) -> dict:
    path.write_text(source)
    try:
        parse(source)
        parsed = None
    except ParseError as error:
        parsed = [str(error), error.line, error.column]
    return {
        "parse": parsed,
        "lint": list(_ppd(["lint", str(path)])[::2]),
        "disasm": list(_ppd(["disasm", str(path)])[::2]),
    }


def _deep_records() -> dict[str, str]:
    from repro.compiler.compile import compile_program
    from repro.core.cli import PPDCommandLine
    from repro.core.flowback import last_assignment
    from repro.runtime.machine import Machine

    record = Machine(compile_program(CHAIN_1500), seed=0, mode="logged").run()
    cli = PPDCommandLine(record)
    cli.execute("why x")
    uid = last_assignment(cli.session.graph, "x").uid
    back = cli.execute(f"back {uid} 5000")

    record = Machine(compile_program(lock_ring(1200)), seed=0, mode="logged").run()
    deadlock = PPDCommandLine(record).execute("deadlock")
    return {"back": digest(back), "deadlock": digest(deadlock)}


def probe(directory: Path) -> dict:
    before = sys.getrecursionlimit()
    import repro  # noqa: F401 - importing them is what is checked
    import repro.core  # noqa: F401
    import repro.runtime.machine  # noqa: F401
    import repro.server  # noqa: F401
    import repro.vm  # noqa: F401
    from repro.core.cli import PPDCommandLine
    from repro.runtime import run_program
    from repro.workloads import buggy_average, dining_philosophers

    record = run_program(buggy_average(5), inputs=[10, 20, 30, 40, 50])
    PPDCommandLine(record).execute("why average")
    report: dict = {"limit": [before, sys.getrecursionlimit()], "shapes": {}}

    for name, make in SHAPES.items():
        bound = deepest(make)
        report["shapes"][name] = {
            "deepest": bound,
            "at": _passes(make(bound)),
            "past": _past_the_bound(make(bound + 1), directory / f"{name}.pcl"),
        }

    report["deep"] = _deep_records()
    dining = directory / "dining1200.pcl"
    dining.write_text(dining_philosophers(1200))
    code, out, err = _ppd(["lint", str(dining)])
    report["deep"]["lint"] = [code, digest(out), err]
    return report


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]))))
