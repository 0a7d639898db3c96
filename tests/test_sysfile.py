"""Text and JSON encodings of systems: round trips over the bundled and
generated systems, the packaged data files, every parse diagnostic, and
files read and written a chunk at a time."""
import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

import anoncheck
from anoncheck import sysfile
from anoncheck import (FIXTURE_NAMES, GenConfig, SysFileError, build_system,
                       derive_sequential, fixture_system, from_json_dict,
                       load_system, mixer_chain, parse_system, random_system,
                       render_system, save_system, to_json_dict)
from anoncheck.cli import main
from anoncheck.scenarios import standard_sequential_schema

import reference

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


RELAY5 = ["m1", "m2", "m3", "m4", "m5"]


def _relay5(policy):
    """The 14,400-run relay and its derived system: their files span many
    read chunks and write batches."""
    relay = mixer_chain("all", "all", policy, messages=RELAY5)
    return relay, derive_sequential(relay, standard_sequential_schema(relay))


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("relay-single", "relay-discrete"))
def test_saved_text_is_the_rendered_text(tmp_path, name):
    if name.startswith("relay-"):
        systems = _relay5(name[len("relay-"):])
    else:
        systems = [fixture_system(name)]
    path = tmp_path / "x.sys"
    for system in systems:
        expected = reference.render_system(system)
        save_system(system, path)
        assert render_system(system) == expected
        assert path.read_bytes() == expected.encode("utf-8")


def _peak_bytes(call) -> int:
    """The most memory ``call()`` held at once beyond what was held before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_a_relay_file_is_loaded_and_saved_without_its_whole_text(tmp_path):
    """Loading and saving the derived 14,400-run relay hold less memory at
    their peak than the file's size, the loaded system included: neither
    holds the text, its lines or per-run fact lists."""
    _, derived = _relay5("single")
    path = tmp_path / "relay.sys"
    save_system(derived, path)
    size = path.stat().st_size
    assert load_system(path) == derived
    assert _peak_bytes(lambda: load_system(path)) < size
    assert _peak_bytes(lambda: save_system(derived, tmp_path / "again.sys")) < size
    assert (tmp_path / "again.sys").read_bytes() == path.read_bytes()


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

    def test_a_stem_that_is_not_one_word_names_the_system_system(self, tmp_path):
        """A stem that no ``system NAME`` line can hold is not the default
        name, so both encodings of the loaded system load back."""
        path = tmp_path / "my relay.sys"
        path.write_text("\n".join(GOOD.splitlines()[1:]))
        loaded = load_system(path)
        assert loaded.name == "system"
        for fname in ("out.sys", "out.json"):
            save_system(loaded, tmp_path / fname)
            again = load_system(tmp_path / fname)
            assert again == loaded and again.name == "system"

    def test_compose_output_of_a_stem_that_is_not_one_word_loads(self, tmp_path):
        source = tmp_path / "my relay.sys"
        save_system(mixer_chain("all", "all", messages=["m1", "m2"]), source)
        source.write_text(source.read_text().split("\n", 1)[1])  # no system line
        out = tmp_path / "out.sys"
        assert invoke("compose", str(source), "seq => submit", "-o", str(out))[0] == 0
        rc, stdout, stderr = invoke("check", str(out),
                                    "anon-upto(in_m1, submit(out_m2), {in_m1,in_m2}, j)")
        assert (rc, stdout, stderr) == (0, "anon-upto(in_m1, submit(out_m2), {in_m1,in_m2}, j): "
                                        "HOLDS\n", "")

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


#: Every line break ``str.splitlines`` knows ("\r\n" is one).
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]


def _breaks_text(runs: int, pad: int = 0) -> str:
    """A ``.sys`` text whose lines end in every line break in turn and whose
    comments hold multibyte characters; one run in seven lists a fact twice,
    one token is first met halfway, and the last line has no break.  ``pad``
    spaces after the first line's comment move every later byte."""
    lines = ["system breaks  # é" + " " * pad, "agents: x y:real j:observer",
             "actions: f g(a) g(b)"]
    for i in range(1, runs + 1):
        facts = "x:f y:g(a)" if i % 7 else "x:f y:g(a) x:f"
        if i >= runs // 2:
            facts += " y:g(b)"
        lines.append(f"run r{i}: {facts}  # ü €")
    lines.append("indist j: " + " ".join(f"{{r{i}}}" for i in range(1, runs + 1)))
    return lines[0] + "".join(BREAKS[k % len(BREAKS)] + line
                              for k, line in enumerate(lines[1:]))


#: Late errors on a text of :func:`_breaks_text`: (old, new) replacements.
LATE_ERRORS = [("run r150: x:f", "run r150: zz:f"), ("run r150:", "run r149:"),
               ("run r150:", "bogus r150:"), ("{r299}", "{r299 r9999}"),
               ("{r300}", "{r300")]


def _outcome(load):
    try:
        return load()
    except SysFileError as exc:
        return str(exc), exc.line


class TestChunkedReading:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64, 4096])
    def test_lines_split_as_splitlines_at_any_chunk_size(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(sysfile, "_CHUNK", chunk)
        path = tmp_path / "breaks.sys"
        for old, new in [("", "")] + LATE_ERRORS:
            text = _breaks_text(300).replace(old, new, 1)
            path.write_bytes(text.encode("utf-8"))
            loaded = _outcome(lambda: load_system(path))
            assert loaded == _outcome(lambda: parse_system(path.read_text(encoding="utf-8")))
            assert loaded == _outcome(lambda: parse_system(text))
        system = parse_system(_breaks_text(300))
        assert len(system.run_ids) == 300 and len(system.observers["j"].blocks) == 300
        assert system.holding(("y", ("g", "b"))) == ((1 << 151) - 1) << 149

    def test_a_crlf_across_the_chunk_boundary(self, tmp_path):
        """A "\\r\\n" whose halves lie in two chunks of the real size is one
        break, for every offset of the lines after it."""
        crlf = _breaks_text(6000).encode("utf-8").rindex(b"\r\n", 0, sysfile._CHUNK)
        exact = sysfile._CHUNK - 1 - crlf  # the pad that puts its "\r" last in the chunk
        path = tmp_path / "big.sys"
        for pad in range(exact - 1, exact + 4):
            text = _breaks_text(6000, pad)
            path.write_bytes(text.encode("utf-8"))
            assert load_system(path) == parse_system(text)
        data = _breaks_text(6000, exact).encode("utf-8")
        assert data[sysfile._CHUNK - 1:sysfile._CHUNK + 1] == b"\r\n"

    @pytest.mark.parametrize("make", [
        # an invalid byte past the first chunks
        lambda text: text[:2 * sysfile._CHUNK + 999] + b"\xff" + text[2 * sysfile._CHUNK + 999:],
        # a multibyte character cut by a bad byte across a chunk boundary
        lambda text: text[:sysfile._CHUNK - 1] + b"\xe2(" + text[sysfile._CHUNK - 1:],
        # a multibyte character cut off by the end of the file
        lambda text: text + b"\xe2\x82",
        # a parse error on line 1 and a bad byte far after it
        lambda text: b"bogus\n" + text + b"\xff",
    ], ids=["bad-byte", "bad-continuation", "cut-at-end", "after-parse-error"])
    def test_decode_errors_give_the_position_in_the_file(self, tmp_path, make):
        data = make(_breaks_text(6000).encode("utf-8"))
        assert len(data) > 3 * sysfile._CHUNK
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "bad.sys"
        path.write_bytes(data)
        message = f"cannot read {path}: {whole.value}"
        assert invoke("check", str(path), "anon-upto(x, f, {x}, j)") == (2, "", f"error: {message}\n")


def _blocks_text(tail: str) -> str:
    """2,000 runs and one partition of 1,998 one-run blocks, then ``tail``."""
    runs = "".join(f"run r{i}:\n" for i in range(1, 2001))
    blocks = " ".join(f"{{r{i}}}" for i in range(1, 1999))
    return f"agents: x\nactions: f\n{runs}indist x: {blocks} {tail}\n"


@pytest.mark.parametrize("tail, message", [
    ("{r1999} r2000", "blocks must be brace-delimited"),
    ("{r1999}} {r2000}", "blocks must be brace-delimited"),
    ("{r1999} {r2000", "unclosed block brace"),
    ("{r1999 r2000} {}", "empty partition block"),
    ("{r1999 zz r2000}", "unknown run 'zz' in block"),
    ("{r1999 {r2000}", "unknown run '{r2000' in block"),
    # the first error on the line is the one reported
    ("{zz} {}", "unknown run 'zz' in block"),
    ("{} {zz}", "empty partition block"),
    ("{zz} {r2000", "unknown run 'zz' in block"),
    ("{} r2000", "empty partition block"),
    ("r1999 {r2000", "blocks must be brace-delimited"),
])
def test_block_errors_late_on_a_long_indist_line(tail, message):
    with pytest.raises(SysFileError) as exc:
        parse_system(_blocks_text(tail))
    assert str(exc.value) == f"line 2003: {message}" and exc.value.line == 2003
    assert len(parse_system(_blocks_text("{r1999} {r2000}")).observers["x"].blocks) == 2000
