"""Bytecode VM: the execution engine of every :class:`repro.Machine`.

Compiled PCL programs are lowered once to flat bytecode
(:mod:`repro.vm.bytecode`) and executed on a trampolined dispatch loop
(:mod:`repro.vm.executor`) that suspends at the scheduler's preemption
points and at e-block boundaries.  The same executor writes the log
during a logged run and re-executes e-blocks during replay.  A reference
tree walker is kept in the test suite only, as a differential oracle:
CI checks that records, logs, trace events and deterministic counters
are byte-identical under both.
"""

from .bytecode import Code, ProgramCode, compile_proc, compile_stmt
from .disasm import disasm_json, disassemble, disassemble_program
from .executor import VMExec
from .verify import (
    JumpTargetError,
    StackDepthError,
    UnreachableBlockError,
    VerifyError,
    YieldSiteError,
    verify_code,
    verify_program,
)

__all__ = [
    "Code",
    "JumpTargetError",
    "ProgramCode",
    "StackDepthError",
    "UnreachableBlockError",
    "VMExec",
    "VerifyError",
    "YieldSiteError",
    "compile_proc",
    "compile_stmt",
    "disasm_json",
    "disassemble",
    "disassemble_program",
    "verify_code",
    "verify_program",
]
