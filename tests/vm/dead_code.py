"""PCL programs with statements no path reaches.

Each one places an e-block boundary (a loop, or an accept's exit) after a
statement that cannot complete normally.  The lowering must leave that
dead code out rather than emit a boundary the verifier finds unreachable.
The tests, ``benchmarks/check_vm_parity.py`` and CI's lint smoke read
this table.
"""

from __future__ import annotations

DEAD_CODE_PROGRAMS: dict[str, str] = {
    # The reply's return closes the accept; no ACCEPT_EXIT follows it.
    "accept_return": """
entry E;
proc server() { accept E() { reply 1; return; } }
proc main() { int x = 0; spawn server(); x = call E(); print(x); }
""",
    "return_then_loop": """
shared int total;
lockvar m;
proc worker(int n) {
    int i = 0;
    lock(m);
    total = total + n;
    unlock(m);
    return;
    while (i < n) { i = i + 1; total = total + i; }
}
proc main() {
    spawn worker(2);
    spawn worker(3);
    join();
    print(total);
}
""",
    "break_then_loop": """
proc main() {
    int i = 0;
    int j = 0;
    while (i < 3) {
        i = i + 1;
        break;
        while (j < 3) { j = j + 1; }
    }
    print(i, j);
}
""",
    "if_else_return_then_loop": """
func int pick(int a) {
    int i = 0;
    if (a > 0) { return 1; } else { return 2; }
    while (i < a) { i = i + 1; }
}
proc main() { print(pick(1), pick(0)); }
""",
}
