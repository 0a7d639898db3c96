"""The evaluator interface of the library checks and the CLI.

``perfbench/tracing.py`` replaces ``Evaluator`` in ``formula``,
``properties``, ``composition`` and ``cli`` by a wrapper that takes only
the system and has only ``evaluate`` and ``valid``.  With such a wrapper
in place, which also counts its calls, the checks and CLI ``eval`` must
give the same output, and no formula may be evaluated outside a call to
the wrapper.
"""
import contextlib
import io

from anoncheck import (Action, IndependenceKind, StructuralCondition,
                       StructuralKind, anonymous_up_to, check_independence,
                       check_property, check_structural, derive_sequential,
                       evaluate, fixture_system, maximally_onymous,
                       minimally_private, parse, role_interchangeable,
                       standard_sequential_schema, valid)
from anoncheck import cli, composition, formula, properties

FORMULA = "theta(i1, use(k1)) -> K[j] P[j] theta(i2, use(k2)) & P[j] theta(k1, post(c1))"


def _outputs():
    out = []
    s1234 = fixture_system("s1234")
    schema = standard_sequential_schema(s1234)
    derived = derive_sequential(s1234, schema)
    f = parse(FORMULA)
    out.append(valid(s1234, f))
    out.append([evaluate(s1234, run, f) for run in s1234.runs])
    fact = Action("submit", "c1")
    for spec in (anonymous_up_to("i1", fact, ["i1", "i2"], "j"),
                 minimally_private("i1", fact, "j"), maximally_onymous("i1", fact, "j"),
                 role_interchangeable("i1", fact, "j")):
        out.append(check_property(derived, spec))
    for kind in IndependenceKind:
        if kind is not IndependenceKind.PARALLEL:
            out.append(check_independence(s1234, "j", schema, kind))
    for kind in (StructuralKind.EXHAUSTIVE_POSTING, StructuralKind.BACKWARD_CAUSALITY):
        out.append(check_structural(derived, schema, StructuralCondition(kind)))
    for argv in (["eval", "s1234", FORMULA], ["eval", "s1234", FORMULA, "--run", "r2"],
                 ["eval", "s1234", FORMULA, "--dot", "-"],
                 ["eval", "s1234", FORMULA, "--format", "json"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        out.append((code, stdout.getvalue()))
    return out


def test_checks_and_cli_use_only_evaluate_and_valid(monkeypatch):
    expected = _outputs()
    real = formula.Evaluator
    calls = {"evaluate": 0, "valid": 0}
    inside = []

    class Wrapper:
        __slots__ = ("_ev",)

        def __init__(self, system):
            self._ev = real(system)

        def evaluate(self, f, run):
            calls["evaluate"] += 1
            inside.append(True)
            try:
                return self._ev.evaluate(f, run)
            finally:
                inside.pop()

        def valid(self, f):
            calls["valid"] += 1
            inside.append(True)
            try:
                return self._ev.valid(f)
            finally:
                inside.pop()

    real_mask = real.mask

    def mask(self, f):
        assert inside, "evaluation outside the wrapper"
        return real_mask(self, f)

    monkeypatch.setattr(real, "mask", mask)
    for module in (formula, properties, composition, cli):
        monkeypatch.setattr(module, "Evaluator", Wrapper)
    assert _outputs() == expected
    assert calls["evaluate"] > 0 and calls["valid"] > 0


def test_eval_of_one_run_evaluates_that_run_alone(monkeypatch, tmp_path):
    """``eval --run`` evaluates the formula at the named run only; with
    ``--dot`` the graph still needs every run."""
    seen = []

    class Counting(formula.Evaluator):
        def evaluate(self, f, run):
            seen.append(run)
            return super().evaluate(f, run)

    monkeypatch.setattr(cli, "Evaluator", Counting)
    runs = list(fixture_system("s1234").run_ids)
    for extra, expected in (([], ["r2"]), (["--dot", str(tmp_path / "g.dot")], runs + ["r2"]),
                            (["--dot", "-"], runs)):
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval", "s1234", FORMULA, "--run", "r2", *extra])
        assert seen == expected, extra
