"""CI gate: the bytecode verifier accepts every shipped lowering.

Usage::

    python benchmarks/check_verifier.py

Every workload in :mod:`repro.workloads` (the check_vm_parity table) and
every ``examples/*.pcl`` program is compiled and each procedure's
lowering verified against all four structural invariants (jump targets,
stack balance, e-block reachability, one yield site per preemption
point).  A verifier rejection here means the compiler emitted
structurally broken code; the typed error names the code object and
instruction index.

Exit status: 0 all clean, 1 any rejection.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import compile_program  # noqa: E402
from repro.vm.verify import VerifyError, verify_program  # noqa: E402

from check_vm_parity import WORKLOADS, example_programs  # noqa: E402


def main() -> int:
    programs = dict(WORKLOADS)
    programs.update(example_programs())
    failures = 0
    codes = 0
    for name, (source, _inputs) in sorted(programs.items()):
        try:
            codes += len(verify_program(compile_program(source)))
        except VerifyError as error:
            failures += 1
            print(f"REJECTED {name}: {error}")
            continue
        print(f"ok {name}")
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} programs rejected)"
    print(
        f"\nverifier gate: {verdict} — {codes} code objects "
        f"across {len(programs)} programs"
    )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
