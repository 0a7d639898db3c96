"""Construction and validation of interpreted systems."""
import copy
import gc
import os
import pickle
import subprocess
import sys

import pytest

from anoncheck.sysfile import (SysFileError, from_json_dict, load_system, parse_system,
                               save_system)
from anoncheck.system import (Action, InterpretedSystem, Run, ValidationError,
                              _gc_paused, build_system)


def tiny(**overrides):
    decl = dict(
        name="tiny",
        agents=[("a", "real"), ("b", "real"), ("j", "observer")],
        actions=["go(x)", "go(y)"],
        runs=[("r1", [("a", "go(x)")]), ("r2", [("b", "go(y)")])],
        observers={"j": [["r1", "r2"]]},
    )
    decl.update(overrides)
    return build_system(**decl)


class TestActions:
    def test_parse_with_param(self):
        assert Action.parse("use(k1)") == Action("use", "k1")

    def test_parse_without_param(self):
        assert Action.parse("vote") == Action("vote", "")

    def test_str_round_trip(self):
        for text in ("use(k1)", "vote", "post(c_2)"):
            assert str(Action.parse(text)) == text

    @pytest.mark.parametrize("bad", ["", "use(", "use()", "1bad", "a(b)c"])
    def test_malformed(self, bad):
        with pytest.raises(ValidationError):
            Action.parse(bad)

    def test_every_form_is_one_value(self):
        loaded = parse_system("agents: i1 j\nactions: use(k1)\nrun r1: i1:use(k1)\n"
                              "indist j: {r1}\n").actions[0]
        forms = [Action("use", "k1"), Action.parse("use(k1)"), loaded, ("use", "k1")]
        assert all(form == forms[0] and hash(form) == hash(forms[0]) for form in forms)

    def test_str_repr_order_and_immutability(self):
        act = Action("use", "k1")
        assert (str(act), str(Action("vote"))) == ("use(k1)", "vote")
        assert repr(act) == "Action(family='use', param='k1')"
        assert (act.family, act.param) == ("use", "k1")
        assert sorted([Action("use", "k2"), Action("post", "c9"), act]) == [
            Action("post", "c9"), act, Action("use", "k2")]
        with pytest.raises(AttributeError):
            act.family = "post"


class TestBuild:
    def test_basic_lookups(self):
        s = tiny()
        assert s.holds("r1", "a", "go(x)")
        assert not s.holds("r1", "b", "go(y)")
        assert s.holds("r2", "b", Action("go", "y"))
        assert s.has_agent("a") and not s.has_agent("zz")
        assert s.has_action(Action("go", "x"))

    def test_untagged_agents_allowed(self):
        s = tiny(agents=["a", "b", ("j", "observer")])
        assert s.roles["a"] is None
        assert s.roles["j"] == "observer"
        assert s.agents_with_role("real") == ()

    def test_unknown_role_rejected(self):
        with pytest.raises(ValidationError, match="unknown role"):
            tiny(agents=[("a", "protagonist"), "j"])

    def test_undeclared_agent_in_run(self):
        with pytest.raises(ValidationError, match="undeclared agent"):
            tiny(runs=[("r1", [("zz", "go(x)")]), ("r2", [])])

    @pytest.mark.parametrize("facts,message", [
        ([("a", "go(x)"), ("zz", "go(x)"), ("a", "go(z)")],
         "undeclared agent 'zz' in run 'r2'"),
        ([("a", "go(x)"), ("a", "go(z)"), ("zz", "go(x)")],
         "undeclared action go(z) in run 'r2'"),
        ([("a", "go(x)"), ("a", "go(")], "malformed action 'go('"),
    ])
    def test_errors_after_earlier_runs_are_unchanged(self, facts, message):
        # r1 has validated go(x) for a already; r2 still reports its first
        # bad fact, in order, naming r2.
        with pytest.raises(ValidationError) as exc:
            tiny(runs=[("r1", [("a", "go(x)")]), ("r2", facts)])
        assert str(exc.value) == message

    def test_facts_given_as_lists_or_a_generator(self):
        s = tiny(runs=[("r1", [["a", "go(x)"]]), ("r2", [("b", "go(y)"), ["a", ["go", "x"]]])])
        assert s.holds("r1", "a", "go(x)") and s.holds("r2", "a", "go(x)")
        assert s.runs[1].facts == {("b", Action("go", "y")), ("a", Action("go", "x"))}
        # r2's generator yields a known fact before a new one.
        s = tiny(runs=[("r1", [("a", "go(x)")]),
                       ("r2", (f for f in [("a", "go(x)"), ("b", "go(y)")]))])
        assert s.runs[1].facts == {("a", Action("go", "x")), ("b", Action("go", "y"))}

    def test_runs_share_fact_tuples(self):
        # r2 adds a new fact to the table, r3 only reads it.
        s = tiny(runs=[("r1", [("a", "go(x)")]), ("r2", [("a", "go(x)"), ("b", "go(y)")]),
                       ("r3", [("b", "go(y)"), ("a", "go(x)")])],
                 observers={"j": [["r1", "r2", "r3"]]})
        r1, r2, r3 = ({f[0]: f for f in run.facts} for run in s.runs)
        assert r1["a"] is r2["a"] is r3["a"]
        assert r2["b"] is r3["b"]

    def test_undeclared_action_in_run(self):
        with pytest.raises(ValidationError, match="undeclared action"):
            tiny(runs=[("r1", [("a", "go(z)")]), ("r2", [])])

    def test_duplicate_agent(self):
        with pytest.raises(ValidationError, match="duplicate agent"):
            tiny(agents=["a", "a", ("j", "observer")])

    def test_duplicate_action(self):
        with pytest.raises(ValidationError, match="duplicate action"):
            tiny(actions=["go(x)", "go(x)"])

    def test_duplicate_run(self):
        with pytest.raises(ValidationError, match="duplicate run"):
            tiny(runs=[("r1", []), ("r1", [])])

    def test_empty_sections_rejected(self):
        with pytest.raises(ValidationError):
            tiny(agents=[])
        with pytest.raises(ValidationError):
            tiny(runs=[])
        with pytest.raises(ValidationError):
            tiny(observers={})

    def test_observer_must_be_declared(self):
        with pytest.raises(ValidationError, match="not a declared agent"):
            tiny(observers={"zz": [["r1", "r2"]]})


class TestPartitions:
    def test_partition_must_cover(self):
        with pytest.raises(ValidationError, match="does not cover runs"):
            tiny(observers={"j": [["r1"]]})

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValidationError, match="appears in two blocks"):
            tiny(observers={"j": [["r1", "r2"], ["r2"]]})

    def test_run_repeated_in_a_block(self):
        with pytest.raises(ValidationError, match="run 'r1' appears twice in a block of 'j'"):
            tiny(observers={"j": [["r1", "r2", "r1"]]})

    def test_partition_unknown_run(self):
        with pytest.raises(ValidationError, match="unknown run"):
            tiny(observers={"j": [["r1", "r2", "r9"]]})

    def test_block_errors_name_runs_in_the_order_given(self):
        # Sets of strings iterate in an order that depends on string hashing.
        code = ("from anoncheck import build_system\n"
                "try:\n"
                "    build_system(agents=['a', 'j'], actions=['f'], runs=[('r1', [])],\n"
                "                 observers={'j': [['r1', 'x1', 'x2', 'x3']]})\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        messages = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                                   text=True, check=True, timeout=60,
                                   env={**env, "PYTHONHASHSEED": str(seed)}).stdout
                    for seed in range(1, 6)}
        assert messages == {"unknown run 'x1' in partition of 'j'\n"}

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            tiny(observers={"j": [["r1", "r2"], []]})

    def test_kernel_contains_run(self):
        s = tiny()
        for run in s.runs:
            assert run in s.kernel("j", run)
            assert run in s.kernel("j", run.run_id)

    def test_kernels_partition_runs(self):
        s = tiny(observers={"j": [["r1"], ["r2"]]})
        blocks = {frozenset(r.run_id for r in s.kernel("j", run)) for run in s.runs}
        assert blocks == {frozenset({"r1"}), frozenset({"r2"})}

    def test_kernels_list_runs_in_declaration_order(self):
        s = build_system(agents=["a", "j"], actions=["f"],
                         runs=[(f"r{n}", []) for n in range(1, 6)],
                         observers={"j": [["r5", "r2"], ["r4", "r1", "r3"]]})
        assert [r.run_id for r in s.kernel("j", "r5")] == ["r2", "r5"]
        assert [r.run_id for r in s.kernel("j", "r1")] == ["r1", "r3", "r4"]
        assert s.block_numbers("j") == (0, 1, 0, 0, 1)

    def test_block_index_errors(self):
        s = tiny()
        with pytest.raises(ValidationError, match="^'a' has no declared partition$"):
            s.block_index("a", "r1")
        with pytest.raises(ValidationError, match="unknown run"):
            s.block_index("j", "r9")


class TestEquality:
    def test_ignores_declaration_order(self):
        a = tiny()
        b = tiny(agents=[("j", "observer"), ("b", "real"), ("a", "real")],
                 actions=["go(y)", "go(x)"])
        assert a == b
        assert hash(a) == hash(b)

    def test_ignores_block_order_not_membership(self):
        base = tiny(observers={"j": [["r1"], ["r2"]]})
        same = tiny(observers={"j": [["r2"], ["r1"]]})
        other = tiny(observers={"j": [["r1", "r2"]]})
        assert base == same
        assert base != other

    def test_run_order_matters(self):
        a = tiny()
        b = tiny(runs=[("r2", [("b", "go(y)")]), ("r1", [("a", "go(x)")])])
        assert a != b

    def test_facts_matter(self):
        a = tiny()
        b = tiny(runs=[("r1", []), ("r2", [("b", "go(y)")])])
        assert a != b

    def test_roles_matter(self):
        assert tiny() != tiny(agents=["a", "b", ("j", "observer")])

    def test_not_equal_to_other_types(self):
        assert tiny() != "tiny"


class TestRuns:
    def test_runs_have_no_instance_dict(self):
        run = tiny().runs[0]
        assert not hasattr(run, "__dict__")
        with pytest.raises(AttributeError):
            run.run_id = "r9"

    def test_runs_and_systems_pickle_and_copy(self):
        s = tiny()
        run = s.runs[0]
        for clone in (pickle.loads(pickle.dumps(run)), copy.copy(run), copy.deepcopy(run)):
            assert clone == run and isinstance(clone, Run)
        assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)


@pytest.fixture
def collector():
    """The cyclic collector's state, restored after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _runs_seeing_the_collector(seen):
    """The runs of :func:`tiny`, noting the collector's state as they are read."""
    seen.append(gc.isenabled())
    yield from [("r1", [("a", "go(x)")]), ("r2", [("b", "go(y)")])]


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_builders_pause_and_restore_the_collector(self, collector, enabled, tmp_path):
        (gc.enable if enabled else gc.disable)()
        seen = []
        assert tiny(runs=_runs_seeing_the_collector(seen)) == tiny()
        assert seen == [False] and gc.isenabled() is enabled
        parse_system("agents: a j\nactions: go\nrun r1: a:go\nindist j: {r1}\n")
        from_json_dict({"agents": [{"name": "j"}], "actions": ["go"],
                        "runs": [{"id": "r1", "facts": []}], "observers": {"j": [["r1"]]}})
        for suffix in (".sys", ".json"):
            save_system(tiny(), tmp_path / f"tiny{suffix}")
            assert load_system(tmp_path / f"tiny{suffix}") == tiny()
        assert gc.isenabled() is enabled

    def test_pauses_nest(self, collector):
        gc.enable()
        with _gc_paused():
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_state_restored_after_an_error_mid_build(self, collector):
        gc.enable()
        with pytest.raises(ValidationError, match="undeclared agent 'zz'"):
            tiny(runs=[("r1", [("a", "go(x)")]), ("r2", [("zz", "go(y)")])])
        assert gc.isenabled()
        with pytest.raises(SysFileError, match="unknown run 'r9'"):
            parse_system("agents: a j\nactions: go\nrun r1: a:go\nindist j: {r1 r9}\n")
        assert gc.isenabled()
        with pytest.raises(SysFileError, match="appears twice"):
            parse_system("agents: a j\nactions: go\nrun r1: a:go\nindist j: {r1 r1}\n")
        assert gc.isenabled()
        gc.disable()
        with pytest.raises(ValidationError):
            tiny(observers={"j": [["r1"]]})
        assert not gc.isenabled()
