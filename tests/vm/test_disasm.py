"""Golden disassembly: the bytecode lowering of a fixed program is part of
the VM's public contract (``ppd disasm`` output, DESIGN.md section 3.12).
An intentional lowering change must update this listing in the same
commit — anything else is an accidental codegen change."""

from __future__ import annotations

import pytest

from repro.compiler.compile import compile_program
from repro.core.cli import main as ppd_main
from repro.vm import disassemble, disassemble_program

SOURCE = """\
shared int total;
sem gate = 1;

func int twice(int n) {
    return n * 2;
}

proc main() {
    int k = 0;
    while (k < 2) {
        P(gate);
        total = total + twice(k);
        V(gate);
        k = k + 1;
    }
    print("total =", total);
}
"""

GOLDEN = """\
proc twice  (7 instrs)
     0  PRE            @s1
     1  BEGIN_READS
     2  LOAD           n 4
     3  CONST          2
     4  BINOP          *
     5  RETURN_VALUE   @s1
     6  PROC_RETURN    proc:twice

proc main  (43 instrs)
     0  PRE            @s2
     1  BEGIN_READS
     2  CONST          0
     3  DECL_INIT      @s2
     4  PRE            @s3
     5  LOOP_ENTER     @s3 - exit->37 continue->6
     6  BEGIN_READS
     7  LOAD           k 12
     8  CONST          2
     9  BINOP          <
    10  PRED           @s3
    11  JUMP_IF_FALSE  -> 36
    12  PRE            @s4
    13  SEM_P          @s4
    14  POST           @s4
    15  PRE            @s5
    16  BEGIN_READS
    17  LOAD           total 17
    18  CALL_BEGIN     @n19 proc:twice
    19  ARG_MARK
    20  LOAD           k 18
    21  ARG_CAPTURE
    22  CALL_USER      @n19 proc:twice
    23  BINOP          +
    24  STORE          total @s5
    25  POST           @s5
    26  PRE            @s6
    27  SEM_V          @s6
    28  POST           @s6
    29  PRE            @s7
    30  BEGIN_READS
    31  LOAD           k 24
    32  CONST          1
    33  BINOP          +
    34  STORE          k @s7
    35  JUMP           -> 6
    36  LOOP_EXIT
    37  PRE            @s8
    38  BEGIN_READS
    39  CONST          total =
    40  LOAD           total 31
    41  PRINT          @s8 2
    42  PROC_RETURN    proc:main"""


def test_golden_listing():
    assert disassemble_program(compile_program(SOURCE)) == GOLDEN


def test_single_proc_listing_is_a_section_of_the_full_one():
    compiled = compile_program(SOURCE)
    full = disassemble_program(compiled)
    assert disassemble_program(compiled, proc="twice") in full
    assert disassemble_program(compiled, proc="main") in full


def test_unknown_proc_raises():
    compiled = compile_program(SOURCE)
    with pytest.raises(KeyError):
        disassemble_program(compiled, proc="nope")


def test_disassemble_one_code_object():
    compiled = compile_program(SOURCE)
    listing = disassemble(compiled.vm_code().proc("twice"))
    assert listing.startswith("proc twice")
    assert "PROC_RETURN" in listing


def test_vm_code_cache_is_reused():
    compiled = compile_program(SOURCE)
    assert compiled.vm_code() is compiled.vm_code()


def test_vm_code_cache_not_pickled():
    import pickle

    compiled = compile_program(SOURCE)
    compiled.vm_code()
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_vm_cache" not in clone.__dict__
    # ...and rebuilding on the clone produces the same listing.
    assert disassemble_program(clone) == GOLDEN


def test_ppd_disasm_cli(tmp_path, capsys):
    path = tmp_path / "prog.pcl"
    path.write_text(SOURCE)
    assert ppd_main(["disasm", str(path)]) == 0
    out = capsys.readouterr().out
    assert "proc main" in out and "LOOP_ENTER" in out

    assert ppd_main(["disasm", str(path), "--proc", "twice"]) == 0
    out = capsys.readouterr().out
    assert "proc twice" in out and "proc main" not in out

    assert ppd_main(["disasm", str(path), "--proc", "ghost"]) == 1


def test_effect_annotations_mark_statement_boundaries():
    compiled = compile_program(SOURCE)
    listing = disassemble_program(compiled, annotate=True)
    assert "; local" in listing  # k = k + 1
    assert "; sync" in listing  # P(gate) / V(gate)
    assert "; shared" in listing  # total = total + twice(k)
    # Annotations ride on the same listing text, never reorder it.
    stripped = "\n".join(
        line.split(";")[0].rstrip() for line in listing.splitlines()
    )
    assert stripped == disassemble_program(compiled)


def test_disasm_json_structure():
    from repro.vm import disasm_json

    compiled = compile_program(SOURCE)
    doc = disasm_json(compiled, proc="main")
    (proc,) = doc["procs"]
    assert proc["name"] == "main" and proc["kind"] == "proc"
    assert proc["summary"] == "sync"
    assert proc["instr_count"] == len(proc["instrs"])
    ops = [ins["op"] for ins in proc["instrs"]]
    assert "LOOP_ENTER" in ops and "SEM_P" in ops
    boundary = proc["instrs"][0]
    assert boundary["op"] == "PRE" and boundary["effect"] == "local"
    jumps = [ins for ins in proc["instrs"] if ins["op"] in ("JUMP", "JUMP_IF_FALSE")]
    for ins in jumps:
        assert 0 <= ins["target"] < proc["instr_count"]
    assert ("main", "total", True) in {
        (site[0], site[2], site[3]) for site in doc["shared_sites"]
    }


def test_ppd_disasm_cli_flags(tmp_path, capsys):
    import json

    path = tmp_path / "prog.pcl"
    path.write_text(SOURCE)

    assert ppd_main(["disasm", str(path), "--effects"]) == 0
    out = capsys.readouterr().out
    assert "; local" in out and "; sync" in out

    assert ppd_main(["disasm", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {proc["name"] for proc in doc["procs"]} == {"twice", "main"}


def test_ppd_analyze_cli(tmp_path, capsys):
    import json

    path = tmp_path / "prog.pcl"
    path.write_text(SOURCE)

    assert ppd_main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "effects: 2 procedure(s), 8 statement(s)" in out
    assert "4 local, 2 shared, 2 sync" in out
    assert "shared sites:" in out

    assert ppd_main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"local": 4, "shared": 2, "sync": 2}
    main_proc = next(p for p in doc["procs"] if p["name"] == "main")
    assert main_proc["summary"] == "sync"
    local = [s["label"] for s in main_proc["stmts"] if s["effect"] == "local"]
    assert local == ["s2", "s3", "s7"]
