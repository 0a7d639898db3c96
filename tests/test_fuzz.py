"""Fuzzers over every textual input: formula text, the `.sys` format, the JSON
loader, and the CLI's formula, property and schema arguments.  Inputs are
well-formed ones with a few parts replaced, so some parse and most hit an
error path.  Each either parses or ends in its documented error:
:class:`ParseError` with a position inside the text, :class:`SysFileError`,
or a CLI exit code of 0, 1 or 2 with no exception escaping ``main``."""
import contextlib
import io
import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from anoncheck import (FIXTURE_NAMES, InterpretedSystem, SysFileError,
                       fixture_system, from_json_dict, load_system,
                       parse_system, render_system, to_json_dict)
from anoncheck.cli import main
from anoncheck.formula import ParseError, parse, render

#: Stray characters: printable ASCII, control and non-ASCII ones, and Unicode
#: whitespace (a fixed pool, so no Unicode table is built for the draws).
CHARS = st.sampled_from(string.printable + "\x00\x7f\u00a0\u00e9\u03bb\u2028\u3000\U0001f600")
PIECES = ["", " ", "\n", "(", ")", "{", "}", "[", "]", ",", ":", "=", "!", "&", "->",
          "<->", "K[j]", "=>", "+", "run", "theta", "\""]


def mutated(texts):
    """A draw of ``texts`` with up to four short spans replaced by a piece of
    syntax or a few stray characters."""
    @st.composite
    def build(draw):
        text = draw(texts)
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 8)))
            piece = draw(st.sampled_from(PIECES) | st.lists(CHARS, max_size=3).map("".join))
            text = text[:start] + piece + text[end:]
        return text
    return build()


FORMULAS = mutated(st.recursive(
    st.sampled_from(["true", "false", "theta(i1, use(k1))", "theta(k1, post(c1))",
                     "theta(i2,use)", "theta(zz, use(k1))"]),
    lambda kids: (st.builds("{}{}".format, st.sampled_from(["!", "K[j] ", "P[j]", "P[zz] "]), kids)
                  | st.builds("{} {} {}".format, kids, st.sampled_from(["&", "|", "->", "<->"]), kids)
                  | kids.map("({})".format)),
    max_leaves=8))
PROPERTIES = mutated(st.builds(
    "{}({}, {}{}, {})".format,
    st.sampled_from(["anon-upto", "priv-upto", "min-anon", "min-priv", "max-onym",
                     "max-ident", "role-int", "nope"]),
    st.sampled_from(["i1", "k1", "zz"]),
    st.sampled_from(["use(k1)", "post(c1)", "use(k9)", "use"]),
    st.sampled_from(["", ", {i1,i2}", ", {use(k1),use(k2)}", ", {post(c1), post(c2)}", ", {}"]),
    st.sampled_from(["j", "zz"])))
SCHEMAS = mutated(st.builds(
    "{} {} {}".format,
    st.sampled_from(["seq", "par"]),
    st.sampled_from(["", "use post", "use:I_P={k1,k2} post:C={c1,c2}", "use:{k1} post",
                     "act_a + act_b", "a + b"]),
    st.sampled_from(["", "=> submit", "=> joint", "=> joint : C={c1,c2}", "=> 9x"])))
SYS_TEXTS = mutated(st.sampled_from([render_system(fixture_system(name))
                                     for name in FIXTURE_NAMES]))
JSON_TEXTS = mutated(st.sampled_from([json.dumps(to_json_dict(fixture_system(name)))
                                      for name in FIXTURE_NAMES]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(["", "j", "i1", "use(k1)", "r1"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["name", "role", "agents", "actions", "runs", "id", "facts",
                         "observers", "j"]), kids, max_size=5),
    max_leaves=12)


@st.composite
def json_documents(draw):
    """A fixture's JSON document with one value, at any depth, replaced or
    dropped, or the document whole."""
    data = to_json_dict(fixture_system(draw(st.sampled_from(FIXTURE_NAMES))))
    parent, key, node = None, None, data
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = node[key]
    value = draw(st.just(node) | JSON_VALUES)
    if parent is None:
        return value
    if draw(st.booleans()):
        parent[key] = value
    else:
        del parent[key]
    return data


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, err.getvalue()


@given(FORMULAS)
def test_formula_text_parses_or_reports_a_position(text):
    try:
        f = parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse(render(f)) is f


@given(SYS_TEXTS)
def test_sys_text_loads_or_raises_sysfile_error(text):
    try:
        system = parse_system(text)
    except SysFileError:
        return
    assert isinstance(system, InterpretedSystem)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "system.json"


@given(text=JSON_TEXTS)
def test_json_file_loads_or_raises_sysfile_error(json_path, text):
    json_path.write_text(text, encoding="utf-8")
    try:
        system = load_system(json_path)
    except SysFileError:
        return
    assert isinstance(system, InterpretedSystem)


@given(json_documents())
def test_json_document_loads_or_raises_sysfile_error(data):
    try:
        system = from_json_dict(data)
    except SysFileError:
        return
    assert isinstance(system, InterpretedSystem)


@settings(deadline=None)
@given(FORMULAS)
def test_cli_formula_exits_cleanly(text):
    rc, err = run_cli("eval", "s12", text)
    assert rc in (0, 1, 2) and (rc == 2) == bool(err)


@settings(deadline=None)
@given(PROPERTIES)
def test_cli_property_exits_cleanly(text):
    rc, err = run_cli("check", "s12", text)
    assert rc in (0, 1, 2) and (rc == 2) == bool(err)


@settings(deadline=None)
@given(SCHEMAS, st.sampled_from(["s1234", "par_swap"]), st.booleans())
def test_cli_schema_exits_cleanly(text, system, compose):
    argv = ["compose", system, text] if compose else ["indep", system, text, "basic"]
    rc, err = run_cli(*argv)
    assert rc in (0, 1, 2) and (rc == 2) == bool(err)
