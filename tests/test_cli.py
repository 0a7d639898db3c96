"""Command-line surface: every subcommand, the three output formats, exit
codes, and agreement between the CLI verdicts and the library checkers."""
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from anoncheck import (Action, GenConfig, check_claim, check_property,
                       derive_sequential, minimally_anonymous, parse_system,
                       random_system, render_system, save_system)
from anoncheck.cli import main
from anoncheck.scenarios import CLAIMS, standard_sequential_schema
from anoncheck.sysfile import to_json_dict


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class TestEval:
    def test_truth_table(self):
        rc, out, _ = invoke("eval", "s12", "K[j] theta(i1, use(k1))")
        assert rc == 1
        assert out.splitlines() == [
            "K[j] theta(i1, use(k1))",
            "  r1  false",
            "  r2  false",
            "not valid (first false at r1)",
        ]

    def test_valid_formula(self):
        rc, out, _ = invoke("eval", "s12", "P[j] theta(i1, use(k1))")
        assert rc == 0
        assert out.splitlines()[-1] == "valid over all runs"

    def test_single_run(self):
        rc, out, _ = invoke("eval", "s12", "theta(i1, use(k1))", "--run", "r1")
        assert (rc, out) == (0, "theta(i1, use(k1)) is true at r1\n")
        rc, out, _ = invoke("eval", "s12", "theta(i1, use(k1))", "--run", "r2")
        assert (rc, out) == (1, "theta(i1, use(k1)) is false at r2\n")

    def test_machine_format(self):
        rc, out, _ = invoke("eval", "s12", "P[j] theta(i1, use(k1))",
                            "--format", "machine")
        assert rc == 0
        assert out.splitlines() == ["verdict=holds", "run.r1=true", "run.r2=true"]

    def test_json_format(self):
        rc, out, _ = invoke("eval", "s12", "K[j] theta(i1, use(k1))",
                            "--format", "json")
        data = json.loads(out)
        assert rc == 1
        assert data["verdict"] == "fails"
        assert data["counterexample_run"] == "r1"
        assert data["runs"] == [{"run": "r1", "value": False},
                                {"run": "r2", "value": False}]

    def test_dot_output(self, tmp_path):
        rc, out, _ = invoke("eval", "s12", "K[j] theta(i1, use(k1))", "--dot", "-")
        assert rc == 1
        assert out == (
            'graph "s12" {\n'
            "  node [shape=box];\n"
            '  subgraph "cluster_j_0" {\n'
            '    label="j block 1";\n'
            '    "j:r1" [label="r1", color=red];\n'
            '    "j:r2" [label="r2", color=red];\n'
            "  }\n"
            "}\n")
        path = tmp_path / "g.dot"
        invoke("eval", "s12", "true", "--dot", str(path))
        assert "color=darkgreen" in path.read_text()

    def test_error_exits(self, tmp_path):
        rc, _, err = invoke("eval", "s12", "true & ???")
        assert rc == 2 and "unexpected character '?' (at position 7)" in err
        rc, _, err = invoke("eval", "s12", "theta(zz, use(k1))")
        assert rc == 2 and "undeclared agent" in err
        rc, _, err = invoke("eval", "s12", "P[zz] true")
        assert rc == 2 and "'zz' has no declared partition" in err
        rc, _, err = invoke("eval", "s12", "true", "--run", "zz")
        assert rc == 2 and "unknown run 'zz'" in err
        missing = tmp_path / "missing" / "x.dot"
        rc, _, err = invoke("eval", "s12", "true", "--dot", str(missing))
        assert (rc, err) == (2, f"error: cannot write {missing}: No such file or directory\n")

    # Parsing has no depth limit; evaluating either 3,000-deep chain overflows
    @pytest.mark.parametrize("formula", ["!" * 3000 + "true",
                                         " & ".join(["true"] * 3000)],
                             ids=["negations", "conjuncts"])
    def test_deep_formula_exits_2(self, formula):
        rc, out, err = invoke("eval", "s12", formula)
        assert (rc, out, err) == (2, "", "error: formula nested too deeply\n")


class TestCheck:
    def test_holds_line(self):
        rc, out, _ = invoke("check", "s12", "anon-upto(i1, use(k1), {i1,i2}, j)")
        assert (rc, out) == (0, "anon-upto(i1, use(k1), {i1,i2}, j): HOLDS\n")

    def test_fails_with_counterexample(self):
        rc, out, _ = invoke("check", "s12", "max-onym(i1, use(k1), j)")
        assert rc == 1
        assert out.splitlines() == [
            "max-onym(i1, use(k1), j): FAILS",
            "  counterexample run: r1",
            "  failing conjunct: K[j] theta(i1, use(k1))",
        ]

    def test_machine_format(self):
        rc, out, _ = invoke("check", "s12", "max-onym(i1, use(k1), j)",
                            "--format", "machine")
        assert rc == 1
        assert out.splitlines() == [
            "verdict=fails",
            "counterexample_run=r1",
            "failing_conjunct=K[j] theta(i1, use(k1))",
        ]

    def test_json_format(self):
        rc, out, _ = invoke("check", "s12", "anon-upto(i1, use(k1), {i1,i2}, j)",
                            "--format", "json")
        assert (rc, json.loads(out)) == (0, {"verdict": "holds"})

    @pytest.mark.parametrize("text,holds", [
        ("anon-upto(i1, use(k1), {i1,i2}, j)", True),
        ("min-anon(i1, use(k1), j)", True),
        ("priv-upto(k1, post(c1), {post(c1),post(c2)}, j)", True),
        ("min-priv(k1, post(c1), j)", True),
        # the implicit universe spans both stages, so swaps with the posting
        # facts are demanded too and the property fails on s12
        ("role-int(i1, use(k1), j)", False),
        ("role-int(i1, use(k1), {use(k1),use(k2)}, j)", True),
        ("max-onym(i1, use(k1), j)", False),
        ("max-ident(i1, use(k1), j)", False),
    ])
    def test_every_kind_parses(self, text, holds):
        rc, out, _ = invoke("check", "s12", text)
        assert rc == (0 if holds else 1)
        assert out.startswith(f"{text}: {'HOLDS' if holds else 'FAILS'}")

    def test_error_exits(self):
        rc, _, err = invoke("check", "s12", "who-knows(i1, use(k1), j)")
        assert rc == 2 and "unknown property kind 'who-knows'" in err
        rc, _, err = invoke("check", "s12", "anon-upto(i1)")
        assert rc == 2 and "wrong arguments" in err
        rc, _, err = invoke("check", "s12", "min-anon(i1, use(k1), zz)")
        assert rc == 2 and "'zz' has no declared partition" in err


#: ``check s12 TEXT`` -> exit code, stdout in human and in json format, and
#: stderr (the same in both), recorded before the parser read the table of
#: property forms: every kind, and malformed texts (wrong arity for
#: fixed-set, set-free and optional-set kinds, empty and unbraced sets, bad
#: actions in and out of a set, an unknown kind, undeclared names, no
#: argument list).
CHECK_GOLDEN = [
    ('anon-upto(i1, use(k1), {i1,i2}, j)', 0,
     'anon-upto(i1, use(k1), {i1,i2}, j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('min-anon(i1, use(k1), j)', 0,
     'min-anon(i1, use(k1), j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('priv-upto(k1, post(c1), {post(c1),post(c2)}, j)', 0,
     'priv-upto(k1, post(c1), {post(c1),post(c2)}, j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('min-priv(k1, post(c1), j)', 0,
     'min-priv(k1, post(c1), j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('role-int(i1, use(k1), j)', 1,
     'role-int(i1, use(k1), j): FAILS\n  counterexample run: r1\n  failing conjunct: k1:post(c1)\n',
     '{\n  "counterexample_run": "r1",\n  "failing_conjunct": "k1:post(c1)",\n  "verdict": "fails"\n}\n',
     ''),
    ('role-int(i1, use(k1), {use(k1),use(k2)}, j)', 0,
     'role-int(i1, use(k1), {use(k1),use(k2)}, j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('max-onym(i1, use(k1), j)', 1,
     'max-onym(i1, use(k1), j): FAILS\n  counterexample run: r1\n  failing conjunct: K[j] theta(i1, use(k1))\n',
     '{\n  "counterexample_run": "r1",\n  "failing_conjunct": "K[j] theta(i1, use(k1))",\n  "verdict": "fails"\n}\n',
     ''),
    ('max-ident(k1, post(c1), j)', 1,
     'max-ident(k1, post(c1), j): FAILS\n  counterexample run: r1\n  failing conjunct: K[j] theta(k1, post(c1))\n',
     '{\n  "counterexample_run": "r1",\n  "failing_conjunct": "K[j] theta(k1, post(c1))",\n  "verdict": "fails"\n}\n',
     ''),
    ('anon-upto(i1, use(k1), {i2,i1}, j)', 0,
     'anon-upto(i1, use(k1), {i2,i1}, j): HOLDS\n',
     '{\n  "verdict": "holds"\n}\n',
     ''),
    ('anon-upto(i1, use(k1), j)', 2,
     '',
     '',
     "error: property 'anon-upto': wrong arguments (not enough values to unpack (expected 4, got 3))\n"),
    ('anon-upto(i1)', 2,
     '',
     '',
     "error: property 'anon-upto': wrong arguments (not enough values to unpack (expected 4, got 1))\n"),
    ('priv-upto(k1, post(c1), {post(c1)}, j, j)', 2,
     '',
     '',
     "error: property 'priv-upto': wrong arguments (too many values to unpack (expected 4))\n"),
    ('min-anon(i1, use(k1), {i1,i2}, j)', 2,
     '',
     '',
     "error: property 'min-anon': wrong arguments (too many values to unpack (expected 3))\n"),
    ('max-ident(k1, post(c1))', 2,
     '',
     '',
     "error: property 'max-ident': wrong arguments (not enough values to unpack (expected 3, got 2))\n"),
    ('role-int(i1, use(k1))', 2,
     '',
     '',
     "error: property 'role-int': wrong arguments (not enough values to unpack (expected 4, got 2))\n"),
    ('role-int(i1, use(k1), {use(k1)}, j, j)', 2,
     '',
     '',
     "error: property 'role-int': wrong arguments (too many values to unpack (expected 4))\n"),
    ('anon-upto(i1, use(k1), {}, j)', 2, '', '', 'error: anonymity set must not be empty\n'),
    ('role-int(i1, use(k1), { , }, j)', 2, '', '', 'error: action universe must not be empty\n'),
    ('priv-upto(k1, post(c1), {post(c1),bogus}, j)', 2,
     '',
     '',
     'error: undeclared action bogus in property universe\n'),
    ('role-int(i1, use(k1), {use(k1),use(}, j)', 2,
     '',
     '',
     "error: unbalanced '(' in 'i1, use(k1), {use(k1),use(}, j'\n"),
    ('max-onym(i1, use(k1), j))', 2, '', '', "error: unbalanced ')' in 'i1, use(k1), j)'\n"),
    ('anon-upto(i1, use(k1), {i1,i2}}, j)', 2,
     '',
     '',
     "error: unbalanced '}' in 'i1, use(k1), {i1,i2}}, j'\n"),
    ('priv-upto(k1, post(c1), {post(c1),post()}, j)', 2,
     '',
     '',
     "error: malformed action 'post()'\n"),
    ('role-int(i1, use(k1), {use(k1),1x}, j)', 2, '', '', "error: malformed action '1x'\n"),
    ('anon-upto(i1, use(k1), i1, j)', 2,
     '',
     '',
     "error: anonymity set must be a braced list like {x,y}, got 'i1'\n"),
    ('min-priv(k1, post(), j)', 2, '', '', "error: malformed action 'post()'\n"),
    ('min-priv(k1, bogus, j)', 2, '', '', 'error: undeclared action bogus\n'),
    ('who-knows(i1, use(k1), j)', 2, '', '', "error: unknown property kind 'who-knows'\n"),
    ('min-anon(i1, use(k1), zz)', 2, '', '', "error: 'zz' has no declared partition\n"),
    ('anon-upto(i1, use(k1), {i1,zz}, j)', 2,
     '',
     '',
     "error: undeclared agent 'zz' in property universe\n"),
    ('max-onym(zz, use(k1), j)', 2, '', '', "error: undeclared agent 'zz'\n"),
    ('min-anon(i1, use(k1), j', 2,
     '',
     '',
     "error: expected KIND(args), got 'min-anon(i1, use(k1), j'\n"),
    ('min-anon', 2, '', '', "error: expected KIND(args), got 'min-anon'\n"),
]


@pytest.mark.parametrize("text,rc,human,js,err", CHECK_GOLDEN)
def test_check_output_is_pinned(text, rc, human, js, err):
    assert invoke("check", "s12", text) == (rc, human, err)
    assert invoke("check", "s12", text, "--format", "json") == (rc, js, err)


class TestIndep:
    def test_failing_variant(self):
        rc, out, _ = invoke("indep", "s12",
                            "seq use:I_P={k1,k2} post:C={c1,c2} => submit", "basic")
        assert rc == 1
        assert out.splitlines() == [
            "independence[basic]: FAILS",
            "  counterexample run: r1",
            "  failing conjunct: i1,k1,k1,c2",
        ]

    def test_abbreviated_schema_is_equivalent(self):
        full = invoke("indep", "s12", "seq use:I_P={k1,k2} post:C={c1,c2} => submit",
                      "pairwise")
        short = invoke("indep", "s12", "seq use post => submit", "pairwise")
        assert full == short

    def test_holding_variant(self):
        rc, out, _ = invoke("indep", "s1234", "seq use post => submit", "basic")
        assert (rc, out) == (0, "independence[basic]: HOLDS\n")

    def test_json_format(self):
        rc, out, _ = invoke("indep", "s12", "seq use post => submit", "pairwise",
                            "--format", "json")
        assert rc == 1
        assert json.loads(out) == {
            "verdict": "fails",
            "counterexample_run": "r1",
            "failing_conjunct": "i1,k1+i1,k1;k1,c2+k1,c2",
        }

    def test_parallel_kind(self):
        rc, out, _ = invoke("indep", "par_swap", "par act_a + act_b => joint",
                            "parallel")
        assert (rc, out) == (0, "independence[parallel]: HOLDS\n")

    def test_disjunctive_bound(self):
        rc, _, _ = invoke("indep", "s1234", "seq use post => submit",
                          "disjunctive", "--bound", "1")
        assert rc == 0

    def test_disjunctive_bound_past_the_fact_count(self):
        """A bound past a stage's fact count (four facts here) lists the
        same disjunctions, so it answers as the bound 4 does, at once."""
        for system in ("s12", "s1234"):
            for fmt in ("human", "json"):
                args = ("indep", system, "seq use post => submit", "disjunctive",
                        "--format", fmt, "--bound")
                assert invoke(*args, str(10**9)) == invoke(*args, "4"), (system, fmt)

    def test_unbalanced_braces_are_reported(self):
        for schema, brace in (("seq use:{k1,k2 post:{c1,c2} => submit", "{"),
                              ("seq use:{k1,k2}} post:{c1,c2} => submit", "}")):
            assert invoke("indep", "s1234", schema, "basic") == (
                2, "", f"error: unbalanced {brace!r} in {schema!r}\n")

    def test_error_exits(self):
        rc, _, err = invoke("indep", "s12", "seq use post => submit", "parallel")
        assert rc == 2 and "needs a ParallelSchema" in err
        rc, _, err = invoke("indep", "s12", "seq use post => submit", "basic",
                            "--observer", "zz")
        assert rc == 2 and "has no declared partition" in err


class TestCompose:
    def test_sequential_to_stdout(self, s12):
        rc, out, _ = invoke("compose", "s12", "seq use post => submit")
        schema = standard_sequential_schema(s12)
        assert rc == 0
        assert out == render_system(derive_sequential(s12, schema))

    def test_output_file_reloads(self, tmp_path, s12):
        path = tmp_path / "derived.sys"
        rc, out, _ = invoke("compose", "s12", "seq use post => submit",
                            "-o", str(path))
        assert rc == 0
        assert out == f"wrote s12 (2 runs) to {path}\n"
        derived = parse_system(path.read_text())
        schema = standard_sequential_schema(s12)
        assert derived == derive_sequential(s12, schema)

    def test_parallel_compose(self, par_swap_joint):
        rc, out, _ = invoke("compose", "par_swap", "par act_a + act_b => joint")
        assert rc == 0
        assert out == render_system(par_swap_joint)

    def test_error_exits(self, tmp_path):
        rc, _, err = invoke("compose", "s12", "seq use => submit")
        assert rc == 2 and "takes both stages or neither" in err
        rc, _, err = invoke("compose", "par_swap", "par act_a => joint")
        assert rc == 2 and "must be written 'FAMILY_A + FAMILY_B'" in err
        rc, _, err = invoke("compose", "s12", "seq use post => post")
        assert rc == 2 and "derived family 'post' already declared" in err
        rc, _, err = invoke("compose", "s1234", "seq use:{k1,k2} post:{c1,c1}")
        assert (rc, err) == (2, "error: duplicate action submit(c1)\n")
        rc, _, err = invoke("compose", "par_swap", "par act_a + act_b => joint : C={c1,c1}")
        assert (rc, err) == (2, "error: duplicate action joint(c1)\n")
        missing = tmp_path / "missing" / "x.sys"
        rc, _, err = invoke("compose", "s1234", "seq => submit", "-o", str(missing))
        assert (rc, err) == (2, f"error: cannot write {missing}: No such file or directory\n")


class TestClaims:
    def test_list_names_every_claim(self):
        rc, out, _ = invoke("claims", "list")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == len(CLAIMS)
        for cid in CLAIMS:
            assert any(line.startswith(cid) for line in lines)

    def test_witness_claim_breakdown(self):
        rc, out, _ = invoke("claims", "run", "C3.1")
        assert rc == 0
        assert out.splitlines() == [
            "C3.1 on s12: confirmed (4/4 items)",
            "  hypothesis use-anonymity: holds",
            "  hypothesis post-privacy: holds",
            "  conclusion submit-exposure: holds",
            "  item 1: every first-stage fact anonymous up to the first-stage"
            " population: yes",
            "  item 2: every second-stage fact private up to the second-stage"
            " actions: yes",
            "  item 3: some chained fact not anonymous: yes"
            " [anonymous-up-to(i1, submit(c1)) @ r1]",
            "  item 4: some chained fact not private: yes"
            " [private-up-to(i1, submit(c1)) @ r1]",
        ]

    def test_base_only_claim_runs_on_a_composed_system(self, tmp_path):
        path = tmp_path / "derived.sys"
        assert invoke("compose", "s1234", "seq use post => submit", "-o", str(path))[0] == 0
        rc, out, _ = invoke("claims", "run", "L3.1", "--system", str(path))
        assert rc == 0 and out.splitlines()[0] == "L3.1 on s1234: vacuous"
        rc, _, err = invoke("claims", "run", "C3.2", "--system", str(path))
        assert rc == 2 and "derived family 'submit' already declared" in err

    @pytest.mark.parametrize("fname,content,message", [
        ("bad.sys", b"\xff\xfe", "error: cannot read {path}: 'utf-8' codec"),
        ("bad.json", b"\xff\xfe", "error: cannot read {path}: 'utf-8' codec"),
        ("deep.json", b"[" * 100_000, "error: invalid JSON: maximum recursion depth"),
    ])
    def test_unreadable_system_files_exit_2(self, tmp_path, fname, content, message):
        path = tmp_path / fname
        path.write_bytes(content)
        rc, out, err = invoke("claims", "run", "L3.1", "--system", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith(message.format(path=path))

    def test_vacuous_on_mismatched_system(self):
        rc, out, _ = invoke("claims", "run", "C3.2", "--system", "s12")
        assert rc == 0
        assert out.splitlines()[0] == "C3.2 on s12: vacuous"
        assert "hypothesis independence: fails (i1,k1,k1,c2 @ r1)" in out

    def test_drop_exposes_refutation(self):
        rc, out, _ = invoke("claims", "run", "CA.3", "--system", "s56",
                            "--drop", "exclusive-agents")
        assert rc == 1
        lines = out.splitlines()
        assert lines[0] == "CA.3 on s56: REFUTED"
        assert lines[1] == "  dropped hypotheses: exclusive-agents"
        assert ("  conclusion submit-min-privacy: fails"
                " (minimally-private(i1, submit(c1)) @ r5)") in lines

    def test_a_hypothesis_dropped_twice_is_listed_once(self):
        """A repeated ``--drop`` keeps the first occurrence of each name, in
        the order given."""
        run = ("claims", "run", "CA.3", "--system", "s56")
        once = ("--drop", "independence", "--drop", "exclusive-agents")
        twice = once + ("--drop", "exclusive-agents", "--drop", "independence")
        rc, out, err = invoke(*run, *twice)
        assert (rc, out, err) == invoke(*run, *once)
        assert out.splitlines()[1] == "  dropped hypotheses: independence, exclusive-agents"
        rc, out, _ = invoke(*run, *twice, "--format", "json")
        (report,) = json.loads(out)["claims"]
        assert report["dropped"] == ["independence", "exclusive-agents"]

    def test_machine_format(self):
        rc, out, _ = invoke("claims", "run", "C3.1", "--format", "machine")
        assert rc == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines())
        assert pairs["claim"] == "C3.1"
        assert pairs["system"] == "s12"
        assert pairs["verdict"] == "confirmed"
        assert pairs["hypothesis.use-anonymity"] == "holds"
        assert pairs["conclusion.submit-exposure"] == "holds"
        assert pairs["item.1"] == pairs["item.4"] == "yes"

    def test_run_all(self):
        rc, out, _ = invoke("claims", "run", "all")
        assert rc == 0
        headers = [l for l in out.splitlines() if not l.startswith(" ")]
        assert len(headers) == len(CLAIMS)
        assert all(": confirmed" in h for h in headers)

    @pytest.mark.parametrize("system, flavor, count",
                             [("s1234", "sequential", 18), ("par_swap", "parallel", 4)])
    def test_run_all_on_a_given_system(self, system, flavor, count):
        """``all`` with ``--system`` runs each claim of the flavor the system
        admits, in registry order, exactly as the claims run one by one."""
        ids = [cid for cid, cdef in CLAIMS.items() if cdef.flavor == flavor]
        assert len(ids) == count
        singles = [invoke("claims", "run", cid, "--system", system) for cid in ids]
        rc, out, err = invoke("claims", "run", "all", "--system", system)
        assert (rc, err) == (max(r for r, _, _ in singles), "")
        assert out == "".join(o for _, o, _ in singles)

    def test_run_all_on_a_system_of_no_flavor(self, tmp_path):
        path = tmp_path / "plain.sys"
        path.write_text("system plain\nagents: a j:observer\nactions: go(x)\n"
                        "run r1: a:go(x)\nindist j: {r1}\n")
        rc, out, err = invoke("claims", "run", "all", "--system", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: cannot infer schema: no use/post actions declared\n"

    def test_unknown_claim(self):
        rc, _, err = invoke("claims", "run", "ZZ.1")
        assert rc == 2 and "unknown claim 'ZZ.1'" in err

    def test_run_all_with_a_dropped_hypothesis(self):
        """``all --drop NAME`` runs the claims that have NAME, in registry
        order; when none has it, the first claim reports why."""
        ids = [cid for cid, cdef in CLAIMS.items() if "independence" in cdef.hypotheses]
        assert ids == ["C3.2", "C3.3", "C4.1", "C4.2", "CA.3", "CA.4",
                       "LA.1", "LA.2", "LA.3"]
        singles = [invoke("claims", "run", cid, "--drop", "independence") for cid in ids]
        rc, out, err = invoke("claims", "run", "all", "--drop", "independence")
        assert (rc, err) == (max(r for r, _, _ in singles), "")
        assert out == "".join(o for _, o, _ in singles)
        assert "  dropped hypotheses: independence" in out.splitlines()
        rc, out, err = invoke("claims", "run", "all", "--drop", "independence",
                              "--drop", "zz")
        assert (rc, out) == (2, "")
        assert err == "error: claim C3.1 has no hypothesis 'independence'\n"

    def test_witness_claim_names_its_failing_hypothesis(self):
        detail = "anonymous-up-to(i1, use(k1)) @ r5"
        rc, out, _ = invoke("claims", "run", "C3.1", "--system", "s56")
        assert rc == 0
        assert out.splitlines()[:3] == [
            "C3.1 on s56: vacuous (2/4 items)",
            f"  hypothesis use-anonymity: fails ({detail})",
            "  hypothesis post-privacy: holds"]
        rc, out, _ = invoke("claims", "run", "C3.1", "--system", "s56", "--format", "json")
        (report,) = json.loads(out)["claims"]
        assert report["hypotheses"] == [
            {"name": "use-anonymity", "holds": False, "detail": detail},
            {"name": "post-privacy", "holds": True, "detail": None}]
        assert report["items"][0]["detail"] == detail


class TestSearch:
    def test_dropped_hypothesis_finds_counterexample(self):
        rc, out, _ = invoke("search", "C3.2", "--drop-hypothesis", "independence",
                            "--budget", "500")
        assert rc == 1
        lines = out.splitlines()
        assert lines[0] == "counterexample for C3.2 after 4233 systems (exhaustive phase)"
        assert lines[1] == "C3.2 on x16-33: REFUTED"
        sys_text = out[out.index("system x16-33"):]
        found = parse_system(sys_text)
        report = check_claim("C3.2", found, drop=("independence",))
        assert report.verdict.value == "REFUTED"

    def test_a_hypothesis_dropped_twice_is_dropped_once(self):
        search = ("search", "C3.2", "--budget", "100", "--format", "json")
        twice = invoke(*search, "--drop-hypothesis", "independence",
                       "--drop-hypothesis", "independence")
        assert twice == invoke(*search, "--drop-hypothesis", "independence")
        assert json.loads(twice[1])["report"]["dropped"] == ["independence"]

    def test_no_counterexample_without_drop(self):
        rc, out, _ = invoke("search", "C3.2", "--budget", "50", "--max-runs", "2")
        assert rc == 0
        assert out == ("no counterexample for C3.2 in 32946 systems"
                       " (hypotheses held on 2688)\n")

    def test_error_exits(self):
        rc, _, err = invoke("search", "C3.1")
        assert rc == 2 and "witness-only" in err
        rc, _, err = invoke("search", "C3.2", "--drop-hypothesis", "zz")
        assert rc == 2 and "has no hypothesis 'zz'" in err


def test_closed_stdout_exits_2_without_a_traceback():
    """A reader that leaves early (``| head``) ends the command with exit 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "anoncheck.cli", "claims", "run", "C3.1",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


class TestSystemResolution:
    def test_path_and_fixture_agree(self, tmp_path, s12):
        path = tmp_path / "copy.sys"
        save_system(s12, path)
        assert invoke("eval", str(path), "true") == invoke("eval", "s12", "true")

    def test_json_files_load(self, tmp_path, s12):
        path = tmp_path / "copy.json"
        save_system(s12, path)
        rc, _, _ = invoke("check", str(path), "min-anon(i1, use(k1), j)")
        assert rc == 0

    def test_missing_file(self):
        rc, _, err = invoke("eval", "missing.sys", "true")
        assert rc == 2 and "cannot read" in err

    def test_json_fact_of_three_elements(self, tmp_path, s12):
        data = to_json_dict(s12)
        data["runs"][0]["facts"][0].append("extra")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = invoke("check", str(path), "min-anon(i1, use(k1), j)")
        assert (rc, out) == (2, "")
        assert "is not an [agent, action] pair" in err
        assert "Traceback" not in err


class TestVerdictAgreement:
    def test_cli_matches_library_on_random_systems(self, tmp_path):
        for seed in range(40):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform",
                            partition="random" if seed % 3 else "single")
            system = random_system(cfg)
            path = tmp_path / f"sys{seed}.sys"
            save_system(system, path)
            subject = system.agents[seed % 2]
            action = system.actions[seed % len(system.actions)]
            rc, out, _ = invoke("check", str(path),
                                f"min-anon({subject}, {action}, j)")
            expected = check_property(
                system, minimally_anonymous(subject, Action.parse(str(action)), "j"))
            assert rc == (0 if expected.holds else 1)
            assert out.startswith(f"min-anon({subject}, {action}, j):")
