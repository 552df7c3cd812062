"""Package-wide contracts: the public names and their callers, the
exactness gate, the value classes, the import footprint, the
zero-dependency rule, the source line budget, and the README's library
tour."""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calabi_bell
from calabi_bell import (
    BellTable,
    BlockMatrix,
    BlockScanReport,
    CalabiParams,
    CoeffMatrix,
    CoefficientSequence,
    ConditionReport,
    FubiniStudyBase,
    ScanReport,
    TruncatedSeries,
    alternating_bell_sum,
    complete_bell,
    eh_block_scan,
    format_rational,
    fs_power_matrix,
    generalized_binomial,
    h_values,
    min_negative_r,
    partial_bell_partition,
    partial_bell_recurrence,
    psd_check,
    scan_grid,
)
from calabi_bell import diastasis, inequality, potential, rationals, series

ROOT = Path(__file__).parent.parent


def test_package_names_are_the_export_map():
    names = calabi_bell.__all__
    exports = {stem: listed.split() for stem, listed in calabi_bell._EXPORTS.items()}
    assert names == ["__version__", *(name for listed in exports.values() for name in listed)]
    assert len(names) == len(set(names))
    # The package resolves each name on first access from its map; it must
    # hand out the object of the module the map lists the name under.
    for stem, listed in exports.items():
        for name in listed:
            assert getattr(calabi_bell, name) is getattr(getattr(calabi_bell, stem), name), name
    assert {"__all__", *names} <= set(dir(calabi_bell))
    star = {}
    exec("from calabi_bell import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    # The map is the one list of public names: each public top-level def or
    # class of a library module is listed under that module, and each other
    # name listed there is assigned at the module's top level.
    for stem, listed in exports.items():
        tree = ast.parse((ROOT / "src" / "calabi_bell" / f"{stem}.py").read_text())
        defined, assigned = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                assigned |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        assert sorted(defined - set(listed)) == [], stem
        assert sorted(set(listed) - defined - assigned) == [], stem


def _names_in(node: ast.AST) -> set[str]:
    """Every name, attribute, imported name and string constant in ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _annotated(tree: ast.Module) -> dict[str, set[str]]:
    """The identifiers in the annotations of each top-level function and
    class of a module: a function's signature, a class's fields and the
    signatures of its methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            notes = [sub.annotation for sub in ast.walk(node) if isinstance(sub, (ast.arg, ast.AnnAssign))]
            notes += [sub.returns for sub in ast.walk(node) if isinstance(sub, ast.FunctionDef)]
            words = (re.findall(r"\w+", ast.unparse(note)) for note in notes if note is not None)
            found[node.name] = set().union(*words)
    return found


def test_every_export_has_a_caller():
    """Each module's public name is used outside that module: by another
    module of the package, by ``perfbench/`` (a name, or a string it looks
    the name up by), by a README ``python`` block or by the acceptance
    checks. A class a used function returns, or a used class holds, is
    reached through its annotations. A name only the other tests reach is
    surface no caller needs. The package ``__init__`` is no caller: its
    export map names every export."""
    paths = (ROOT / "src" / "calabi_bell").glob("*.py")
    trees = {path.stem: ast.parse(path.read_text()) for path in paths if path.stem != "__init__"}
    outside = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _names_in(ast.parse(path.read_text()))
    for block in (ROOT / "README.md").read_text().split("```python\n")[1:]:
        outside |= _names_in(ast.parse(block.split("```", 1)[0]))
    exports, reached, annotated = set(), set(), {}
    for stem, listed in calabi_bell._EXPORTS.items():
        elsewhere = outside.union(*(_names_in(tree) for other, tree in trees.items() if other != stem))
        exports |= set(listed.split())
        reached |= set(listed.split()) & elsewhere
        annotated.update(_annotated(trees[stem]))
    frontier = list(reached)
    while frontier:
        for name in (annotated.get(frontier.pop(), set()) & exports) - reached:
            reached.add(name)
            frontier.append(name)
    unused = sorted(exports - reached)
    assert not unused, f"no caller outside the defining module: {', '.join(unused)}"


PARAMS = CalabiParams(2, 2, 1)
SERIES = TruncatedSeries((1, 2, 3))

# Every public way into the exact layer, each handed one float.
FLOAT_INPUTS = {
    "partial_bell_partition": lambda: partial_bell_partition(2, 1, [1, 0.5]),
    "partial_bell_recurrence": lambda: partial_bell_recurrence(2, 1, [0.1, 0.2]),
    "complete_bell": lambda: complete_bell(2, [1, 0.5]),
    "BellTable(sequence)": lambda: BellTable([1, 0.5]),
    "BellTable(callable)": lambda: BellTable(lambda l: 0.5).extend(1),
    "format_rational": lambda: format_rational(0.1),
    "generalized_binomial": lambda: generalized_binomial(0.5, 2),
    "CalabiParams.k0": lambda: CalabiParams(2, 2.0, 1),
    "CalabiParams.c": lambda: CalabiParams(2, 2, 1.0),
    "CoefficientSequence.values": lambda: CoefficientSequence((1, 0.5)),
    "h_values.m": lambda: h_values(PARAMS, 1.0, 3),
    "alternating_bell_sum": lambda: alternating_bell_sum(2, 0.5, 3),
    "min_negative_r": lambda: min_negative_r(2, 0.5, 5),
    "scan_grid": lambda: scan_grid(2, [1, 0.5], 5),
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


def test_gate_returns_a_fraction_as_is():
    value = Fraction(3, 7) ** 250
    assert rationals._exact(value) is value

    class Half(Fraction):
        pass

    for value, exact in ((True, 1), (Half(1, 2), Fraction(1, 2)), (4, 4)):
        assert type(rationals._exact(value)) is Fraction
        assert rationals._exact(value) == exact
    with pytest.raises(TypeError, match="must be exact"):
        rationals._exact(0.5)


# Strings take the CLI's contract: "p/q" or "p", spaces allowed, no decimals.
DECIMAL_STRINGS = {
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
    assert rationals._exact("-6/8") == Fraction(-3, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        rationals._exact("1/0")


# One valid instance of each immutable value class: its fields, in order,
# with values the class keeps as given.
RECORDS = {
    TruncatedSeries: {"coeffs": (Fraction(1), Fraction(2, 3))},
    CalabiParams: {"n": 2, "k0": Fraction(2), "c": Fraction(1, 3)},
    CoefficientSequence: {"values": (Fraction(1), Fraction(-4))},
    ConditionReport: {
        "horizontal_factor": 2.0,
        "fiber_factor": 0.5,
        "ode_residual": 0.0,
        "imaginary_residue": 1e-18,
    },
    ScanReport: {
        "n": 2,
        "q": Fraction(1, 2),
        "r_max": 4,
        "rows": ((1, Fraction(1, 2)), (2, Fraction(0))),
        "min_negative_r": None,
    },
    FubiniStudyBase: {"d": 1, "multiple": 2},
    CoeffMatrix: {
        "d": 1,
        "exponent": Fraction(1, 2),
        "cutoff": 2,
        "indices": ((1,), (2,)),
        "entries": (Fraction(1, 2), Fraction(-1, 8)),
    },
    BlockMatrix: {
        "r": 2,
        "scale": Fraction(-1, 2),
        "exponent": Fraction(5),
        "verdict": "not-PSD",
    },
    BlockScanReport: {
        "d": 1,
        "multiple": 1,
        "k0": Fraction(4),
        "c": Fraction(1),
        "r_max": 2,
        "cutoff": 6,
        "integrality_failure": False,
        "failure_reason": None,
        "blocks": (BlockMatrix(0, Fraction(1), Fraction(2), "PSD"),),
        "first_negative_r": 2,
    },
}
RECORD_IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS.items(), ids=RECORD_IDS)
def test_value_class_construction_equality_and_hash(cls, fields):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert all(getattr(keyword, name) == value for name, value in fields.items())
    first, *rest = fields
    mixed = cls(fields[first], **{name: fields[name] for name in rest})
    assert mixed == keyword and hash(mixed) == hash(keyword)
    assert keyword != (*fields.values(),)
    for bad in ((), (*fields.values(), None)):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(**{**fields, "extra": 1})


@pytest.mark.parametrize("cls,fields", RECORDS.items(), ids=RECORD_IDS)
def test_value_class_is_immutable(cls, fields):
    record = cls(**fields)
    for name in (*fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))
    assert record == cls(**fields)


@pytest.mark.parametrize("cls,fields", RECORDS.items(), ids=RECORD_IDS)
def test_value_class_repr(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_value_classes_differ_field_by_field():
    assert CalabiParams(2, 2, 1) != CalabiParams(2, 2, 2)
    assert BlockMatrix(1, 1, 2, "PSD") != BlockMatrix(2, 1, 2, "PSD")
    assert FubiniStudyBase(1, 1) != FubiniStudyBase(1, 2)
    assert TruncatedSeries((1, 0)) != TruncatedSeries((1,))
    assert len({CalabiParams(2, 2, 1), CalabiParams(2, "2", "1"), CalabiParams(3, 2, 1)}) == 2


def test_value_classes_normalize_their_fields():
    assert type(CalabiParams(2, 2, True).c) is Fraction
    assert CoefficientSequence([1, "1/2"]).values == (1, Fraction(1, 2))
    assert TruncatedSeries(coeffs=[1, "1/2"]).coeffs == (1, Fraction(1, 2))
    assert all(type(c) is Fraction for c in TruncatedSeries((1, 2)).coeffs)


INVALID_RECORDS = {
    "TruncatedSeries empty": lambda: TruncatedSeries(()),
    "CalabiParams n=1": lambda: CalabiParams(1, 2, 1),
    "CalabiParams n not int": lambda: CalabiParams(Fraction(2), 2, 1),
    "CalabiParams k0=0": lambda: CalabiParams(2, 0, 1),
    "CalabiParams c<0": lambda: CalabiParams(n=2, k0=2, c=-1),
    "FubiniStudyBase d=0": lambda: FubiniStudyBase(0, 1),
    "FubiniStudyBase multiple=0": lambda: FubiniStudyBase(d=1, multiple=0),
}


@pytest.mark.parametrize("call", INVALID_RECORDS.values(), ids=INVALID_RECORDS.keys())
def test_validating_value_classes_raise(call):
    with pytest.raises(ValueError):
        call()


# One bad value for each rule the package checks on its inputs, module by
# module: every refusal is the one ``InputError``, never a bare ValueError.
BAD_VALUES = {
    "parse_rational": lambda: rationals.parse_rational("1/0"),
    "generalized_binomial": lambda: generalized_binomial(Fraction(1, 2), -1),
    "partial_bell_recurrence j > r": lambda: partial_bell_recurrence(2, 3, [1, 1]),
    "partial_bell_partition short x": lambda: partial_bell_partition(5, 2, [1, 1, 1]),
    "partial_bell_partition r not int": lambda: partial_bell_partition(2.0, 1, [1, 1]),
    "complete_bell r=0": lambda: complete_bell(0, [1]),
    "BellTable past its terms": lambda: BellTable([1, 1]).extend(3),
    "BellTable.row(0)": lambda: BellTable([1]).row(0),
    "TruncatedSeries empty": lambda: TruncatedSeries(()),
    "TruncatedSeries.x(0)": lambda: TruncatedSeries.x(0),
    "TruncatedSeries.pow_int": lambda: SERIES.pow_int(-1),
    "TruncatedSeries.derivative": lambda: TruncatedSeries((1,)).derivative(),
    "exp_of": lambda: series.exp_of(SERIES),
    "CalabiParams n=1": lambda: CalabiParams(1, 2, 1),
    "CalabiParams c=0": lambda: CalabiParams(2, 2, 0),
    "u_coeffs order=0": lambda: potential.u_coeffs(PARAMS, 0),
    "condition_series_residual order=0": lambda: series.condition_series_residual(PARAMS, 0),
    "h_values m=0": lambda: h_values(PARAMS, 0, 3),
    "h_values r_max=0": lambda: h_values(PARAMS, 1, 0),
    "ClosedFormEvaluator x<0": lambda: potential.ClosedFormEvaluator(PARAMS).u(-1.0),
    "ClosedFormEvaluator overflow": lambda: potential.ClosedFormEvaluator(PARAMS).u(1e308),
    "ClosedFormEvaluator k0 overflow": lambda: potential.ClosedFormEvaluator(
        CalabiParams(2, 10**400, 1)
    ),
    "ClosedFormEvaluator n above ceiling": lambda: potential.ClosedFormEvaluator(
        CalabiParams(potential.EVAL_N_CEILING + 1, 2, 1)
    ),
    "normalized_term l=0": lambda: inequality.normalized_term(2, 0),
    "alternating_bell_sum n=1": lambda: alternating_bell_sum(1, 1, 2),
    "min_negative_r q<0": lambda: min_negative_r(2, "-1/2", 5),
    "scan_grid r_max=0": lambda: scan_grid(2, [1], 0),
    "FubiniStudyBase lambda=0": lambda: FubiniStudyBase(1, 0),
    "monomial_indices cutoff=0": lambda: diastasis.monomial_indices(1, 0),
    "fs_coeff_matrix m=0": lambda: diastasis.fs_coeff_matrix(FubiniStudyBase(1, 2), 1, 0, 2),
    "psd_check not symmetric": lambda: psd_check([[1, 2], [3, 4]]),
    "eh_block_scan r_max<0": lambda: eh_block_scan(FubiniStudyBase(1, 2), 1, -1),
}


@pytest.mark.parametrize("call", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_every_refusal_is_an_input_error(call):
    with pytest.raises(rationals.InputError):
        call()


# A fresh interpreter importing the package and its CLI loads none of these;
# dataclasses alone would pull in the other four (see README "Cold start").
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _printed_by(probe: str) -> list[str]:
    """The words the last line of ``probe``'s stdout holds, run in a fresh
    interpreter over this source tree."""
    source = Path(calabi_bell.__file__).parent.parent
    path = os.pathsep.join(filter(None, (str(source), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.splitlines()[-1].split()


def _loaded_after(statement: str) -> list[str]:
    return _printed_by(
        f"import sys; {statement}; print(*sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))"
    )


def test_cli_import_loads_no_dataclasses_chain():
    assert _loaded_after("pass") == []
    assert _loaded_after("import calabi_bell, calabi_bell.cli") == []


# Modules bound lazily: each is in sys.modules from the package import on,
# and its type becomes a plain module only once its code has run.
LAZY = ("calabi_bell.potential", "calabi_bell.series", "calabi_bell.diastasis")


def _run_after(commands: list[list[str]], lazy=LAZY, imported=("cmath",)) -> list[str]:
    """The exit codes of ``cli.main`` on ``commands`` in a fresh
    interpreter, then the ``lazy`` modules that ran, then the modules of
    ``imported`` that the package or the commands imported."""
    return _printed_by(
        "import sys, types; bare = set(sys.modules); import calabi_bell, calabi_bell.cli\n"
        f"codes = [calabi_bell.cli.main(argv) for argv in {commands!r}]\n"
        f"ran = [name for name in {lazy!r} if type(sys.modules[name]) is types.ModuleType]\n"
        f"new = [name for name in {imported!r} if name in sys.modules and name not in bare]\n"
        "print(*codes, *ran, *new)"
    )


def test_scan_and_bell_run_no_lazy_module():
    commands = [
        ["scan", "--n", "2", "--q", "3"],
        ["scan", "--n", "3", "--grid", "1/2,5", "--format", "json"],
        ["bell", "--r", "4", "--x", "1,2,3,4", "--format", "csv"],
    ]
    assert _run_after(commands) == ["0", "0", "0"]


def test_a_lazy_module_runs_when_a_command_reads_it():
    hr = ["hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "3"]
    blocks = ["blocks", "--d", "1", "--lambda", "2", "--c", "1"]
    # Neither runs calabi_bell.series: nothing in the library imports it.
    assert _run_after([hr]) == ["0", "calabi_bell.potential", "cmath"]
    assert _run_after([blocks]) == ["0", "calabi_bell.potential", "calabi_bell.diastasis", "cmath"]


# Witness r = 102, past RECHECK_MAX_R: the scan re-checks nothing.
DEEP_SCAN = ["scan", "--n", "2", "--q", "65", "--rmax", "240"]
BELL_AND_JSON = {"lazy": ("calabi_bell.bell",), "imported": ("json",)}


def test_a_deep_scan_runs_no_bell_module_and_imports_no_json():
    assert _run_after([DEEP_SCAN, [*DEEP_SCAN, "--format", "csv"]], **BELL_AND_JSON) == ["0", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "2", "--q", "3"],
        ["scan", "--n", "2", "--grid", "65,66", "--rmax", "240"],
        ["bell", "--r", "4", "--x", "1,2,3,4"],
    ],
    ids=["re-check", "grid", "bell"],
)
def test_a_command_that_reads_the_bell_module_runs_it(argv):
    assert _run_after([argv], **BELL_AND_JSON) == ["0", "calabi_bell.bell"]


def test_json_output_imports_json():
    assert _run_after([[*DEEP_SCAN, "--format", "json"]], **BELL_AND_JSON) == ["0", "json"]


# ROADMAP aim 2: the source was 1,958 lines at the start of the round,
# 1,850 once the library became the one owner of its input rules and
# 1,760 once the names no caller reached were gone, and 1,771 with the
# evaluator's n ceiling and the shared CLI parser; the budget was set there
# with a 9-line margin. It is 1,778 with the series layer's running common
# denominator, paid for in part by deleting code that earned nothing, and
# 1,774 with the scan kernels on the scale b^m gcd(n^m, m!). It was 1,777
# before the potential layer dropped the record fields and evaluator
# arguments no caller read, and 1,753 after, with the useries --order
# ceiling. It was 1,752 before the package export map became the one list of
# public names, with no module ``__all__`` left, and 1,711 after, with the
# evaluator's one closed-form loop; both budgets sit just above the counts
# there.
SOURCE_LINE_BUDGET = 1714
# Lines that are neither blank, comment-only nor inside a docstring: 1,035
# before the record-field change, 1,015 after it, 1,006 before the export
# map change and 967 after. Docstring lines cost the budget above but next
# to nothing in compile time (ROADMAP, setup_s), so code has its own.
CODE_LINE_BUDGET = 970


def _code_lines(text: str) -> int:
    """The lines of ``text`` that are not blank, not comment-only and not
    inside a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(text.splitlines(), 1)
    return sum(1 for i, line in lines if line.strip()[:1] not in ("", "#") and i not in docstrings)


def test_source_stays_under_budget():
    paths = (ROOT / "src" / "calabi_bell").glob("*.py")
    total = sum(len(path.read_text().splitlines()) for path in paths)
    assert total < SOURCE_LINE_BUDGET, f"src/calabi_bell has {total} lines"


def test_code_stays_under_budget():
    paths = (ROOT / "src" / "calabi_bell").glob("*.py")
    total = sum(_code_lines(path.read_text()) for path in paths)
    assert total < CODE_LINE_BUDGET, f"src/calabi_bell has {total} lines of code"


def test_code_line_count_skips_docstrings_and_comments():
    sample = (
        '"""Module\ndocstring."""\n\nimport math  # kept\n\n\nclass A:\n    """One line."""\n\n'
        '    # a comment\n    def f(self):\n        """Two\n        lines."""\n'
        '        text = """not a\n        docstring"""\n        return text\n'
    )
    assert _code_lines(sample) == 6  # import, class, def, both lines of text =, return


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_benchmark_record_is_complete(path):
    # A committed benchmark record carries its provenance and, per workload,
    # every end-to-end metric with a ratio that matches its medians.
    record = json.loads(path.read_text())
    for key in ("name", "machine", "parent_commit", "change_commit", "command", "method", "workloads"):
        assert record.get(key), key
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert len(metrics) == 5
    for workload, entry in record["workloads"].items():
        assert sorted(entry["summary"]) == sorted(metrics), workload
        for metric, stats in entry["summary"].items():
            ratio = stats["change_median"] / stats["parent_median"]
            assert math.isclose(stats["change_over_parent"], ratio, rel_tol=1e-12), (workload, metric)


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
