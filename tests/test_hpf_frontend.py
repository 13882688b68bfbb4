"""Tests for the mini-HPF lexer, parser and front end."""

import pytest

from repro.exceptions import HPFSemanticError, HPFSyntaxError
from repro.hpf.frontend import compile_source, frontend_to_ir
from repro.hpf.lexer import DIRECTIVE, EOF, IDENT, NUMBER, tokenize
from repro.hpf.parser import parse_program
from repro.core.analysis import analyze_program
from repro.core.ir import LoopKind
from repro.runtime.slab import SlabbingStrategy


GAXPY_SOURCE = """
program gaxpy
  parameter (n = 64, nprocs = 4)
  real a(n, n), b(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) onto Pr
!hpf$ align a(*, :) with d
!hpf$ align c(*, :) with d
!hpf$ align b(:, *) with d
  do j = 1, n
    forall (k = 1 : n)
      c(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
end program
"""


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------
class TestLexer:
    def test_tokenizes_directives_and_code(self):
        tokens = tokenize(GAXPY_SOURCE)
        kinds = [t.kind for t in tokens]
        assert DIRECTIVE in kinds
        assert kinds[-1] == EOF
        idents = [t.text for t in tokens if t.kind == IDENT]
        assert "program" in idents and "forall" in idents

    def test_positions_are_one_based(self):
        tokens = tokenize("program p\n")
        assert tokens[0].line == 1
        assert tokens[0].column == 1

    def test_comments_are_skipped(self):
        tokens = tokenize("! a comment\nprogram p\n")
        assert tokens[0].is_ident("program")

    def test_trailing_comment_stripped(self):
        tokens = tokenize("do j = 1, n   ! loop over columns\n")
        texts = [t.text for t in tokens if t.kind in (IDENT, NUMBER)]
        assert texts == ["do", "j", "1", "n"]

    def test_bad_character(self):
        with pytest.raises(HPFSyntaxError):
            tokenize("do j = 1, n; end do\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
class TestParser:
    def test_parses_gaxpy(self):
        ast = parse_program(GAXPY_SOURCE)
        assert ast.name == "gaxpy"
        assert ast.parameters == {"n": 64, "nprocs": 4}
        assert [a.name for a in ast.arrays] == ["a", "b", "c"]
        assert ast.processors[0].name == "Pr"
        assert ast.distributes[0].patterns == ("block",)
        assert len(ast.aligns) == 3
        outer = ast.body[0]
        assert outer.kind == "do" and outer.index == "j"
        inner = outer.body[0]
        assert inner.kind == "forall" and inner.index == "k"
        statement = inner.body[0]
        assert statement.reduction == "sum"
        assert statement.target.array == "c"

    def test_align_entries(self):
        ast = parse_program(GAXPY_SOURCE)
        entries = {a.array: a.entries for a in ast.aligns}
        assert entries["a"] == ("*", ":")
        assert entries["b"] == (":", "*")

    def test_missing_end_raises(self):
        with pytest.raises(HPFSyntaxError):
            parse_program("program p\n do j = 1, 4\n")

    def test_mismatched_end_raises(self):
        bad = "program p\n do j = 1, 4\n end forall\nend program\n"
        with pytest.raises(HPFSyntaxError):
            parse_program(bad)

    def test_non_reduction_statement_rejected(self):
        bad = GAXPY_SOURCE.replace("sum(a(:, k) * b(k, j))", "copy(a(:, k))")
        with pytest.raises(HPFSyntaxError):
            parse_program(bad)

    def test_unknown_directive_rejected(self):
        bad = GAXPY_SOURCE.replace("!hpf$ template d(n)", "!hpf$ dynamic d(n)")
        with pytest.raises(HPFSyntaxError):
            parse_program(bad)


# ---------------------------------------------------------------------------
# front end lowering
# ---------------------------------------------------------------------------
class TestFrontend:
    def test_lowered_ir_matches_builder(self):
        ir = frontend_to_ir(parse_program(GAXPY_SOURCE))
        assert ir.name == "gaxpy"
        assert ir.arrays["a"].distribution_name() == "column-block"
        assert ir.arrays["b"].distribution_name() == "row-block"
        assert ir.loops[0].kind is LoopKind.SEQUENTIAL and ir.loops[0].extent == 64
        assert ir.loops[1].kind is LoopKind.FORALL
        analysis = analyze_program(ir)
        assert analysis.streamed == "a"
        assert analysis.coefficient == "b"
        assert analysis.result == "c"
        assert analysis.needs_global_sum

    def test_compile_source_end_to_end(self):
        compiled = compile_source(GAXPY_SOURCE, slab_ratio=0.25)
        assert compiled.plan.strategy is SlabbingStrategy.ROW
        assert compiled.nprocs == 4
        assert "row-slab" in compiled.node_program.pretty()

    def test_missing_align_rejected(self):
        bad = GAXPY_SOURCE.replace("!hpf$ align b(:, *) with d\n", "")
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))

    def test_missing_processors_rejected(self):
        bad = GAXPY_SOURCE.replace("!hpf$ processors Pr(nprocs)\n", "")
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))

    def test_undistributed_template_rejected(self):
        bad = GAXPY_SOURCE.replace("!hpf$ distribute d(block) onto Pr\n", "")
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))

    def test_unknown_parameter_rejected(self):
        bad = GAXPY_SOURCE.replace("parameter (n = 64, nprocs = 4)", "parameter (n = 64)")
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))

    def test_unaligned_statement_array_rejected(self):
        bad = GAXPY_SOURCE.replace("c(:, j) = sum(a(:, k) * b(k, j))",
                                   "z(:, j) = sum(a(:, k) * b(k, j))")
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))

    def test_imperfect_nest_rejected(self):
        bad = GAXPY_SOURCE.replace(
            "      c(:, j) = sum(a(:, k) * b(k, j))\n",
            "      c(:, j) = sum(a(:, k) * b(k, j))\n      c(:, j) = sum(a(:, k) * b(k, j))\n",
        )
        with pytest.raises(HPFSemanticError):
            frontend_to_ir(parse_program(bad))


# ---------------------------------------------------------------------------
# executing a program that came in through the front end
# ---------------------------------------------------------------------------
def test_frontend_program_executes_and_verifies(tmp_path):
    import numpy as np

    from repro.config import RunConfig
    from repro.runtime import NodeProgramExecutor, ReductionInputs, VirtualMachine

    compiled = compile_source(GAXPY_SOURCE, slab_ratio=0.5)
    rng = np.random.default_rng(1994)
    inputs = ReductionInputs(
        streamed=rng.standard_normal((64, 64)).astype("float32"),
        coefficient=rng.standard_normal((64, 64)).astype("float32"),
    )
    with VirtualMachine(4, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
        result = NodeProgramExecutor(compiled).execute(vm, inputs)
    assert result.verified is True
