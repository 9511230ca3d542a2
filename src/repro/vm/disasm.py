"""Human-readable listings of :mod:`repro.vm` bytecode (``ppd disasm``)."""

from __future__ import annotations

from ..lang import ast
from . import bytecode as bc

#: opcodes whose sole operand is a jump target
_JUMPS = {bc.JUMP, bc.JUMP_IF_FALSE, bc.SC_AND, bc.SC_OR}


def _operand_str(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, ast.ProcDef):
        return f"proc:{value.name}"
    if isinstance(value, ast.Stmt):
        label = getattr(value, "stmt_label", "") or f"n{value.node_id}"
        return f"@{label}"
    if isinstance(value, ast.Expr):
        return f"@n{value.node_id}"
    if hasattr(value, "block_id"):
        return f"eb{value.block_id}({value.kind})"
    if isinstance(value, str):
        return value
    return repr(value)


def _instr_str(ins: tuple) -> str:
    op = ins[0]
    name = bc.OPNAMES[op]
    if op in _JUMPS:
        return f"{name:<14} -> {ins[1]}"
    if op == bc.LOOP_ENTER:
        stmt, block, exit_after, cont_target = ins[1], ins[2], ins[3], ins[4]
        return (
            f"{name:<14} {_operand_str(stmt)} {_operand_str(block)} "
            f"exit->{exit_after} continue->{cont_target}"
        )
    if op == bc.CHUNK_ENTER:
        return f"{name:<14} {_operand_str(ins[1])} skip->{ins[2]}"
    parts = " ".join(_operand_str(operand) for operand in ins[1:])
    return f"{name:<14} {parts}".rstrip()


def disassemble(code: bc.Code, effects=None) -> str:
    """One code object as an indexed instruction listing.

    With *effects* (a :class:`~repro.analysis.effects.CodeEffects`),
    every statement boundary line carries its effect classification as a
    trailing ``; local|shared|sync`` comment.
    """
    notes = {}
    if effects is not None:
        notes = {stmt.pre_index: stmt.effect for stmt in effects.stmts}
    lines = [f"{code.kind} {code.name}  ({len(code.instrs)} instrs)"]
    for index, ins in enumerate(code.instrs):
        text = _instr_str(ins)
        note = notes.get(index)
        if note is not None:
            text = f"{text:<24} ; {note}"
        lines.append(f"  {index:>4}  {text}")
    return "\n".join(lines)


def disassemble_program(compiled, proc: str | None = None, annotate: bool = False) -> str:
    """Every procedure of *compiled* (or just *proc*) as one listing.

    ``annotate=True`` adds per-statement effect comments.
    """
    program_code = compiled.vm_code()
    per_proc_effects = {}
    if annotate:
        from ..analysis.effects import analyze_program

        per_proc_effects = analyze_program(compiled).procs
    names = [procdef.name for procdef in compiled.program.procs]
    if proc is not None:
        if proc not in names:
            raise KeyError(proc)
        names = [proc]
    sections = [
        disassemble(program_code.proc(name), per_proc_effects.get(name))
        for name in names
    ]
    return "\n\n".join(sections)


def _instr_json(index: int, ins: tuple) -> dict:
    op = ins[0]
    entry: dict = {"index": index, "op": bc.OPNAMES[op]}
    if op in _JUMPS:
        entry["target"] = ins[1]
    elif op == bc.LOOP_ENTER:
        entry["operands"] = [_operand_str(ins[1]), _operand_str(ins[2])]
        entry["exit"] = ins[3]
        entry["continue"] = ins[4]
    elif op == bc.CHUNK_ENTER:
        entry["operands"] = [_operand_str(ins[1])]
        entry["skip"] = ins[2]
    else:
        entry["operands"] = [_operand_str(operand) for operand in ins[1:]]
    return entry


def disasm_json(compiled, proc: str | None = None) -> dict:
    """Machine-readable disassembly + effect analysis (``ppd disasm --json``)."""
    from ..analysis.effects import analyze_program

    program_code = compiled.vm_code()
    program_effects = analyze_program(compiled)
    names = [procdef.name for procdef in compiled.program.procs]
    if proc is not None:
        if proc not in names:
            raise KeyError(proc)
        names = [proc]
    procs = []
    for name in names:
        code = program_code.proc(name)
        effects = program_effects.procs[name]
        notes = {stmt.pre_index: stmt.effect for stmt in effects.stmts}
        instrs = []
        for index, ins in enumerate(code.instrs):
            entry = _instr_json(index, ins)
            if index in notes:
                entry["effect"] = notes[index]
            instrs.append(entry)
        procs.append(
            {
                "name": name,
                "kind": code.kind,
                "summary": program_effects.summaries[name],
                "effects": effects.counts(),
                "instr_count": len(code.instrs),
                "instrs": instrs,
            }
        )
    return {
        "procs": procs,
        "shared_sites": [list(site) for site in sorted(program_effects.shared_sites)],
    }
