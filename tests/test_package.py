"""Package-wide contracts: the public names, the exactness gate, the
zero-dependency rule, the source line budget, and the README's library
tour."""

import ast
import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calabi_bell
from calabi_bell import (
    BellTable,
    CalabiParams,
    CoefficientSequence,
    FubiniStudyBase,
    TruncatedSeries,
    alternating_bell_sum,
    build_bell_table,
    complete_bell,
    eh_block_scan,
    format_rational,
    fs_power_matrix,
    generalized_binomial,
    h_r,
    h_values,
    min_negative_r,
    partial_bell_partition,
    partial_bell_recurrence,
    psd_check,
    q_decomposition,
    rational,
    scan_grid,
)
from calabi_bell import bell, diastasis, inequality, potential, rationals, series

ROOT = Path(__file__).parent.parent
MODULES = (rationals, bell, series, potential, inequality, diastasis)


def test_package_names_are_the_module_lists():
    names = calabi_bell.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(module.__all__ for module in MODULES))
    for name in names:
        assert hasattr(calabi_bell, name), name


PARAMS = CalabiParams(2, 2, 1)
SERIES = TruncatedSeries((1, 2, 3))

# Every public way into the exact layer, each handed one float.
FLOAT_INPUTS = {
    "partial_bell_partition": lambda: partial_bell_partition(2, 1, [1, 0.5]),
    "partial_bell_recurrence": lambda: partial_bell_recurrence(2, 1, [0.1, 0.2]),
    "complete_bell": lambda: complete_bell(2, [1, 0.5]),
    "BellTable(sequence)": lambda: BellTable([1, 0.5]),
    "BellTable(callable)": lambda: BellTable(lambda l: 0.5).extend(1),
    "build_bell_table": lambda: build_bell_table([1, 0.5], 2),
    "rational": lambda: rational(0.1),
    "format_rational": lambda: format_rational(0.1),
    "generalized_binomial": lambda: generalized_binomial(0.5, 2),
    "CalabiParams.k0": lambda: CalabiParams(2, 2.0, 1),
    "CalabiParams.c": lambda: CalabiParams(2, 2, 1.0),
    "CoefficientSequence.values": lambda: CoefficientSequence(PARAMS, (1, 0.5), "ode"),
    "h_values.m": lambda: h_values(PARAMS, 1.0, 3),
    "h_r.m": lambda: h_r(PARAMS, 1.0, 3),
    "alternating_bell_sum": lambda: alternating_bell_sum(2, 0.5, 3),
    "min_negative_r": lambda: min_negative_r(2, 0.5, 5),
    "scan_grid": lambda: scan_grid(2, [1, 0.5], 5),
    "q_decomposition": lambda: q_decomposition(0.5),
    "fs_power_matrix": lambda: fs_power_matrix(1, 0.5, 3),
    "psd_check": lambda: psd_check([[1, 0], [0, 0.5]]),
    "eh_block_scan": lambda: eh_block_scan(FubiniStudyBase(1, 2), 0.5, 4),
    "TruncatedSeries": lambda: TruncatedSeries((1, 0.5)),
    "TruncatedSeries.constant": lambda: TruncatedSeries.constant(0.5, 2),
    "TruncatedSeries.__add__": lambda: SERIES + 0.5,
    "TruncatedSeries.__rsub__": lambda: 0.5 - SERIES,
    "TruncatedSeries.__mul__": lambda: SERIES * 0.5,
    "TruncatedSeries.evaluate": lambda: SERIES.evaluate(0.5),
}


@pytest.mark.parametrize("call", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS.keys())
def test_float_input_is_rejected(call):
    with pytest.raises(TypeError, match="must be exact"):
        call()


def test_exact_inputs_still_pass_the_gate():
    assert rationals._exact("3/4") == Fraction(3, 4)
    assert rationals._exact(Fraction(6, 8), "q") == Fraction(3, 4)
    assert format_rational(-2) == "-2"
    assert partial_bell_recurrence(2, 1, ["1/2", 1]) == 1


# Strings take the CLI's contract: "p/q" or "p", spaces allowed, no decimals.
DECIMAL_STRINGS = {
    "rational": lambda: rational("0.5"),
    "CalabiParams.k0": lambda: CalabiParams(2, "0.5", 1),
    "CalabiParams.c": lambda: CalabiParams(2, 2, "1e-3"),
    "min_negative_r": lambda: min_negative_r(2, "1.5", 10),
    "h_values.m": lambda: h_values(PARAMS, "1.5", 3),
    "TruncatedSeries": lambda: TruncatedSeries(("1", "0.5")),
}


@pytest.mark.parametrize("call", DECIMAL_STRINGS.values(), ids=DECIMAL_STRINGS.keys())
def test_decimal_string_is_rejected(call):
    with pytest.raises(ValueError, match="not a rational 'p/q'"):
        call()


def test_strings_read_like_cli_flags():
    assert CalabiParams(2, " 7 / 3 ", "5/2").k0 == Fraction(7, 3)
    assert min_negative_r(2, " 3 / 2 ", 10) == min_negative_r(2, Fraction(3, 2), 10)
    assert rational("-6/8") == rationals._exact("-6/8") == Fraction(-3, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        rationals._exact("1/0")
    with pytest.raises(TypeError, match="denominator not allowed"):
        rational("1", 2)


# ROADMAP aim 2: the source was this many lines at the start of the round.
SOURCE_LINE_BUDGET = 1958


def test_source_stays_under_budget():
    paths = (ROOT / "src" / "calabi_bell").glob("*.py")
    total = sum(len(path.read_text().splitlines()) for path in paths)
    assert total < SOURCE_LINE_BUDGET, f"src/calabi_bell has {total} lines"


def test_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "calabi_bell").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


def _library_tour() -> tuple[str, list[str]]:
    """The README "Library tour" code and its expected output: the ``# ...``
    comment of each ``print`` line, or the comment line right after it."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = []
    for line in code.splitlines():
        if line.startswith("#"):
            expected.append(line[1:].strip())
        elif line.startswith("print(") and "#" in line:
            expected.append(line.rsplit("#", 1)[1].strip())
    return code, expected


def test_readme_library_tour():
    code, expected = _library_tour()
    assert len(expected) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
