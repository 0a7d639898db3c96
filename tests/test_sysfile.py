"""Text and JSON encodings of systems: round trips over the bundled and
generated systems, the packaged data files, and every parse diagnostic."""
import contextlib
import io
import json
from pathlib import Path

import pytest

import anoncheck
from anoncheck import (FIXTURE_NAMES, GenConfig, SysFileError, build_system,
                       derive_sequential, fixture_system, from_json_dict,
                       load_system, mixer_chain, parse_system, random_system,
                       render_system, save_system, to_json_dict)
from anoncheck.cli import main
from anoncheck.scenarios import standard_sequential_schema

DATA_DIR = Path(anoncheck.__file__).parent / "data"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()

GOOD = """\
system demo
# two agents, one untagged helper
agents: i1:real i2:real helper j:observer
actions: use(k1) post(c1)

run r1: i1:use(k1) helper:post(c1)
run r2:   # observed silence
indist j: {r1 r2}
"""


class TestTextFormat:
    def test_parse_basics(self):
        sys = parse_system(GOOD)
        assert sys.name == "demo"
        assert sys.agents == ("i1", "i2", "helper", "j")
        assert sys.roles["helper"] is None
        assert [str(a) for a in sys.actions] == ["use(k1)", "post(c1)"]
        assert not sys.runs[1].facts

    def test_system_line_is_optional(self):
        text = "\n".join(GOOD.splitlines()[1:])
        assert parse_system(text).name == "system"
        assert parse_system(text, default_name="other").name == "other"

    def test_empty_run_renders_without_trailing_space(self):
        sys = parse_system(GOOD)
        assert "run r2:\n" in render_system(sys)

    def test_facts_render_in_action_declaration_order(self):
        sys = parse_system(GOOD)
        line = [l for l in render_system(sys).splitlines() if l.startswith("run r1")]
        assert line == ["run r1: i1:use(k1) helper:post(c1)"]

    @pytest.mark.parametrize("policy", ["single", "discrete"])
    def test_relay_renders_and_reloads_byte_for_byte(self, tmp_path, policy):
        relay = mixer_chain("all", "all", policy, messages=["m3", "m1", "m2"])
        path = tmp_path / "relay.sys"
        for system in (relay, derive_sequential(relay, standard_sequential_schema(relay))):
            text = render_system(system)
            path.write_text(text)
            loaded = load_system(path)
            assert loaded == system
            assert render_system(loaded) == text

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bundled_files_match_the_builders(self, name):
        path = DATA_DIR / f"{name}.sys"
        text = path.read_text()
        assert text == render_system(load_system(path))
        assert parse_system(text) == load_system(path)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_text_round_trip(self, name):
        sys = fixture_system(name)
        assert parse_system(render_system(sys)) == sys

    def test_round_trip_of_generated_and_derived_systems(self):
        for seed in range(60):
            cfg = GenConfig(seed=seed,
                            style="matching" if seed % 2 else "uniform",
                            partition="random" if seed % 3 else "single")
            sys = random_system(cfg)
            assert parse_system(render_system(sys)) == sys
            if seed % 4 == 0:
                derived = derive_sequential(sys, standard_sequential_schema(sys))
                assert parse_system(render_system(derived)) == derived


def _json_dict_fact_by_fact(system):
    """The JSON encoding written out fact by fact: the reference for
    :func:`to_json_dict`."""
    order = {run.run_id: i for i, run in enumerate(system.runs)}
    return {
        "name": system.name,
        "agents": [{"name": a, "role": system.roles[a]} for a in system.agents],
        "actions": [str(a) for a in system.actions],
        "runs": [{"id": run.run_id,
                  "facts": sorted([agent, str(action)] for agent, action in run.facts)}
                 for run in system.runs],
        "observers": {obs: [sorted(block, key=order.__getitem__) for block in part.blocks]
                      for obs, part in system.observers.items()},
    }


class TestJsonFormat:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_json_round_trip(self, name):
        sys = fixture_system(name)
        data = json.loads(json.dumps(to_json_dict(sys)))
        assert from_json_dict(data) == sys

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("relay-single", "relay-discrete"))
    def test_saved_json_matches_the_fact_by_fact_encoding(self, tmp_path, name):
        if name.startswith("relay-"):
            sys = mixer_chain("all", "all", name[len("relay-"):], messages=["m3", "m1", "m2"])
        else:
            sys = fixture_system(name)
        path = tmp_path / "x.json"
        save_system(sys, path)
        expected = json.dumps(_json_dict_fact_by_fact(sys), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_system(path) == sys

    def test_untagged_role_is_null(self):
        sys = parse_system(GOOD)
        data = to_json_dict(sys)
        assert {"name": "helper", "role": None} in data["agents"]
        assert from_json_dict(data) == sys

    def test_malformed_json_structure(self, s12):
        with pytest.raises(SysFileError, match="malformed system JSON"):
            from_json_dict({"agents": [{"name": "i1"}]})
        with pytest.raises(SysFileError, match="malformed system JSON"):
            from_json_dict(dict(to_json_dict(s12), observers=[["r1", "r2"]]))

    @pytest.mark.parametrize("name", ["a b", "", "a#b", 5, None, ["s12"]])
    def test_name_must_be_one_word(self, s12, name):
        data = dict(to_json_dict(s12), name=name)
        with pytest.raises(SysFileError, match="malformed system JSON: name .* is not one word"):
            from_json_dict(data)

    def test_loaded_json_saves_as_text_and_reloads(self, tmp_path, s12):
        source = tmp_path / "in.json"
        source.write_text(json.dumps(dict(to_json_dict(s12), name="renamed-s12")))
        loaded = load_system(source)
        save_system(loaded, tmp_path / "out.sys")
        reloaded = load_system(tmp_path / "out.sys")
        assert reloaded == loaded and reloaded.name == "renamed-s12"


class TestFiles:
    def test_save_and_load_both_encodings(self, tmp_path, s12):
        for fname in ("a.sys", "a.json"):
            path = tmp_path / fname
            save_system(s12, path)
            assert load_system(path) == s12

    def test_default_name_is_the_file_stem(self, tmp_path):
        text = "\n".join(GOOD.splitlines()[1:])
        path = tmp_path / "fromdisk.sys"
        path.write_text(text)
        assert load_system(path).name == "fromdisk"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SysFileError, match="cannot read"):
            load_system(tmp_path / "absent.sys")

    @pytest.mark.parametrize("fname", ["bad.sys", "bad.json"])
    def test_file_that_is_not_utf8(self, tmp_path, fname):
        path = tmp_path / fname
        path.write_bytes(b"\xff\xfe" + render_system(fixture_system("s12")).encode())
        with pytest.raises(SysFileError, match=f"cannot read .*{fname}: 'utf-8' codec"):
            load_system(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SysFileError, match="invalid JSON: maximum recursion depth") as exc:
            load_system(path)
        assert exc.value.line is None

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"agents": [,]}')
        with pytest.raises(SysFileError, match="invalid JSON") as exc:
            load_system(path)
        assert exc.value.line == 1


KNOWN = "agents: x y\nactions: f g\nrun r1: x:f y:g\nrun r2: y:g x:f "

BAD_LINES = [
    ("system a b\nagents: x\nactions: f\nrun r1:\nindist x: {r1}",
     "expected 'system NAME'", 1),
    ("agents: x\nagents: y\nactions: f\nrun r1:\nindist x: {r1}",
     "duplicate agents section", 2),
    ("agents:\nactions: f\nrun r1:\nindist x: {r1}",
     "agents section is empty", 1),
    ("agents: x\nactions: f\nactions: g\nrun r1:\nindist x: {r1}",
     "duplicate actions section", 3),
    ("agents: x\nactions:\nrun r1:\nindist x: {r1}",
     "actions section is empty", 2),
    ("run r1:\nagents: x\nactions: f\nindist x: {r1}",
     "runs must come after agents and actions", 1),
    ("agents: x\nactions: f\nrun r1\nindist x: {r1}",
     "expected 'run ID: facts'", 3),
    ("agents: x\nactions: f\nrun r1:\nrun r1:\nindist x: {r1}",
     "duplicate run id 'r1'", 4),
    ("agents: x\nactions: f\nrun r1: x\nindist x: {r1}",
     "fact 'x' must look like agent:action", 3),
    ("agents: x\nactions: f\nrun r1: y:f\nindist x: {r1}",
     "unknown agent 'y' in run r1", 3),
    ("agents: x\nactions: f\nrun r1: x:g\nindist x: {r1}",
     "unknown action 'g' in run r1", 3),
    ("agents: x\nactions: f\nrun r1:\nindist x {r1}",
     "expected 'indist OBSERVER: .blocks.'", 4),
    ("agents: x\nactions: f\nrun r1:\nindist x: {r1}\nindist x: {r1}",
     "duplicate indist section for 'x'", 5),
    ("agents: x\nactions: f\nrun r1:\nindist x: r1",
     "blocks must be brace-delimited", 4),
    ("agents: x\nactions: f\nrun r1:\nindist x: {r1",
     "unclosed block brace", 4),
    ("agents: x\nactions: f\nrun r1:\nindist x: {}",
     "empty partition block", 4),
    ("agents: x\nactions: f\nrun r1:\nindist x: {r2}",
     "unknown run 'r2' in block", 4),
    ("agents: x\nactions: f\nbogus line\nrun r1:\nindist x: {r1}",
     "unrecognized directive 'bogus'", 3),
    ("systematic s9\nagents: x\nactions: f\nrun r1:\nindist x: {r1}",
     "unrecognized directive 'systematic'", 1),
    # after run lines, which are matched before the other directives
    ("agents: x\nactions: f\nrun r1: x:f\nsystematic s9\nindist x: {r1}",
     "directive 'systematic'", 4),
    # r1 has made every fact of r2 but the last one known
    (f"{KNOWN}z:f\nindist x: {{r1 r2}}", "unknown agent 'z' in run r2", 4),
    (f"{KNOWN}x:h\nindist x: {{r1 r2}}", "unknown action 'h' in run r2", 4),
    (f"{KNOWN}xf\nindist x: {{r1 r2}}", "fact 'xf' must look like agent:action", 4),
]


class TestDiagnostics:
    @pytest.mark.parametrize("text,message,line",
                             BAD_LINES, ids=[m for _, m, _ in BAD_LINES])
    def test_line_numbered_errors(self, text, message, line):
        with pytest.raises(SysFileError, match=message) as exc:
            parse_system(text)
        assert exc.value.line == line

    def test_missing_sections(self):
        with pytest.raises(SysFileError, match="missing agents section"):
            parse_system("actions: f\n")
        with pytest.raises(SysFileError, match="missing actions section"):
            parse_system("agents: x\n")
        with pytest.raises(SysFileError, match="no runs declared"):
            parse_system("agents: x\nactions: f\n")
        with pytest.raises(SysFileError, match="no observer partition declared"):
            parse_system("agents: x\nactions: f\nrun r1:\n")

    def test_semantic_errors_surface_without_line(self):
        text = "agents: x\nactions: f\nrun r1:\nrun r2:\nindist x: {r1}"
        with pytest.raises(SysFileError, match="does not cover runs") as exc:
            parse_system(text)
        assert exc.value.line is None

    def test_directive_is_the_whole_first_word_on_the_cli(self, tmp_path):
        path = tmp_path / "s.sys"
        path.write_text("systematic s9\n" + GOOD)
        assert invoke("check", str(path), "anon-upto(i1, use(k1), {i1}, j)") == (
            2, "", "error: line 1: unrecognized directive 'systematic'\n")

    @pytest.mark.parametrize("fname", ["s.sys", "s.json"])
    def test_run_repeated_in_a_block(self, tmp_path, fname):
        path = tmp_path / fname
        if fname.endswith(".json"):
            data = to_json_dict(parse_system(GOOD))
            data["observers"]["j"] = [["r1", "r2", "r1"]]
            path.write_text(json.dumps(data))
        else:
            path.write_text(GOOD.replace("{r1 r2}", "{r1 r2 r1}"))
        message = "run 'r1' appears twice in a block of 'j'"
        # Both loaders wrap build errors in SysFileError.
        with pytest.raises(SysFileError, match=message):
            load_system(path)
        assert invoke("check", str(path), "anon-upto(i1, use(k1), {i1}, j)") == (
            2, "", f"error: {message}\n")

    def test_unknown_role_tag_rejected(self):
        text = "agents: x:wizard\nactions: f\nrun r1:\nindist x: {r1}"
        with pytest.raises(SysFileError, match="unknown role"):
            parse_system(text)
