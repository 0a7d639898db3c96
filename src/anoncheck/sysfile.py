"""Reading and writing interpreted systems.

Text format, one declaration per line, ``#`` starts a comment:

    system s12
    agents: i1:real i2:real k1:pseudo k2:pseudo j:observer
    actions: use(k1) use(k2) post(c1) post(c2)
    run r1: i1:use(k1) k1:post(c1) i2:use(k2) k2:post(c2)
    run r2: i1:use(k2) k2:post(c1) i2:use(k1) k1:post(c2)
    indist j: {r1 r2}

Role tags on agents are optional (a bare name declares an untagged agent).
The ``system`` line is optional.  A directive is the line's whole first word
(``systematic`` is not ``system``).  ``agents``/``actions`` must precede the
runs; ``indist`` lines give one observer partition each, blocks in braces,
and every run appears exactly once in each partition.  Errors about a
block name its runs in the order the block gives them.  Lines end where
``str.splitlines`` ends them.

:func:`load_system` reads a file :data:`_CHUNK` bytes at a time and
:func:`save_system` writes it :data:`_BATCH` lines at a time, so neither
holds the whole text; each run line becomes one int row over the distinct
fact tokens, which ``system`` transposes into fact columns once, as it does
the rows of every source of systems.  A JSON
encoding of the same structure is provided for interchange (read and
written whole).
"""
from __future__ import annotations

import codecs
import json
from functools import reduce
from itertools import islice
from operator import or_
from pathlib import Path

from .system import (InterpretedSystem, ValidationError, _from_rows, _gc_paused, _one_word,
                     build_system)


class SysFileError(ValueError):
    """System file rejected; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


#: Bytes :func:`load_system` reads and decodes at a time.
_CHUNK = 1 << 16
#: Lines :func:`save_system` writes at a time.
_BATCH = 1024
#: What ``str.splitlines`` ends a line at ("\r\n" is one break).
_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@_gc_paused()
def parse_system(text: str, default_name: str = "system") -> InterpretedSystem:
    return _parse(text.splitlines(), default_name)


def _parse(lines, default_name: str) -> InterpretedSystem:
    """The system of the ``.sys`` ``lines``.  Each run is one int row over
    the distinct fact tokens met so far (bit ``k`` for the ``k``-th), for
    :func:`~anoncheck.system._from_rows`."""
    name = default_name
    agents: list[tuple[str, str | None]] | None = None
    actions: list[str] | None = None
    runs: dict[str, str] = {}  # each run id to itself, in file order
    rows: list[int] = []  # each run's facts
    observers: dict[str, list[list[str]]] = {}
    declared_agents: set[str] = set()
    declared_actions: set[str] = set()
    # Fact token -> its bit: each distinct token is split and checked once.
    bit: dict[str, int] = {}
    facts: list[tuple[str, str]] = []  # each token's (agent, action), by bit

    def learn(token: str, run_id: str, lineno: int) -> int:
        if ":" not in token:
            raise SysFileError(f"fact {token!r} must look like agent:action", lineno)
        agent, action = token.split(":", 1)
        if agent not in declared_agents:
            raise SysFileError(f"unknown agent {agent!r} in run {run_id}", lineno)
        if action not in declared_actions:
            raise SysFileError(f"unknown action {action!r} in run {run_id}", lineno)
        bit[token] = 1 << len(facts)
        facts.append((agent, action))
        return bit[token]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("run "):
            if agents is None or actions is None:
                raise SysFileError("runs must come after agents and actions", lineno)
            head, sep, rest = line[len("run "):].partition(":")
            if not sep:
                raise SysFileError("expected 'run ID: facts'", lineno)
            run_id = head.strip()
            if run_id in runs:
                raise SysFileError(f"duplicate run id {run_id!r}", lineno)
            runs[run_id] = run_id
            tokens = rest.split()
            try:
                row = sum(map(bit.__getitem__, tokens))
            except KeyError:
                row = sum(bit.get(token) or learn(token, run_id, lineno) for token in tokens)
            if row.bit_count() != len(tokens):  # a fact listed twice counts once
                row = reduce(or_, map(bit.__getitem__, tokens))
            rows.append(row)
        elif line.split(None, 1)[0] == "system":
            parts = line.split()
            if len(parts) != 2:
                raise SysFileError("expected 'system NAME'", lineno)
            name = parts[1]
        elif line.startswith("agents:"):
            if agents is not None:
                raise SysFileError("duplicate agents section", lineno)
            agents = []
            for token in line[len("agents:"):].split():
                if ":" in token:
                    agent, role = token.split(":", 1)
                else:
                    agent, role = token, None
                agents.append((agent, role))
                declared_agents.add(agent)
            if not agents:
                raise SysFileError("agents section is empty", lineno)
        elif line.startswith("actions:"):
            if actions is not None:
                raise SysFileError("duplicate actions section", lineno)
            actions = line[len("actions:"):].split()
            if not actions:
                raise SysFileError("actions section is empty", lineno)
            declared_actions.update(actions)
        elif line.startswith("indist "):
            head, sep, rest = line[len("indist "):].partition(":")
            if not sep:
                raise SysFileError("expected 'indist OBSERVER: {blocks}'", lineno)
            observer = head.strip()
            if observer in observers:
                raise SysFileError(f"duplicate indist section for {observer!r}", lineno)
            observers[observer] = _blocks(rest, runs, lineno)
        else:
            raise SysFileError(f"unrecognized directive {line.split()[0]!r}", lineno)

    if agents is None:
        raise SysFileError("missing agents section")
    if actions is None:
        raise SysFileError("missing actions section")
    if not runs:
        raise SysFileError("no runs declared")
    if not observers:
        raise SysFileError("no observer partition declared (expected an indist line)")
    run_ids = tuple(runs)
    del runs  # freed before the transpose
    try:
        return _from_rows(name, agents, actions, run_ids, facts, rows, observers)
    except ValidationError as exc:
        raise SysFileError(str(exc)) from exc


def _blocks(text: str, runs: dict[str, str], lineno: int) -> list[list[str]]:
    """The blocks of an ``indist`` line's ``{...} {...}`` ``text``, split in
    one pass: every piece but the last ends a block at its "}".  A block
    holds the run ids' own strings (``runs`` maps each to itself)."""
    pieces = text.split("}")
    last = len(pieces) - 1
    blocks: list[list[str]] = []
    for k, piece in enumerate(map(str.strip, pieces)):
        if k == last and not piece:
            break
        if not piece.startswith("{"):
            raise SysFileError("blocks must be brace-delimited", lineno)
        if k == last:
            raise SysFileError("unclosed block brace", lineno)
        try:
            block = list(map(runs.__getitem__, piece[1:].split()))
        except KeyError as exc:
            raise SysFileError(f"unknown run {exc.args[0]!r} in block", lineno) from None
        if not block:
            raise SysFileError("empty partition block", lineno)
        blocks.append(block)
    return blocks


def _render_lines(system: InterpretedSystem):
    """The ``.sys`` text of ``system``, a line (with its newline) at a time."""
    yield f"system {system.name}\n"
    yield "agents: " + " ".join(
        f"{a}:{system.roles[a]}" if system.roles.get(a) else a
        for a in system.agents) + "\n"
    yield "actions: " + " ".join(str(a) for a in system.actions) + "\n"
    # Each run's fact text, in action declaration order, then by agent.
    position = {action: i for i, action in enumerate(system.actions)}
    facts = sorted(system._holding, key=lambda fact: (position[fact[1]], fact[0]))
    texts = system._spread(facts, [f"{agent}:{action}" for agent, action in facts])
    for run_id, rendered in zip(system.run_ids, map(" ".join, texts)):
        yield f"run {run_id}: {rendered}\n" if rendered else f"run {run_id}:\n"
    for observer, part in system.observers.items():
        yield f"indist {observer}: " + " ".join(
            "{" + " ".join(sorted(block, key=system.position)) + "}"
            for block in part.blocks) + "\n"


def render_system(system: InterpretedSystem) -> str:
    return "".join(_render_lines(system))


def to_json_dict(system: InterpretedSystem) -> dict:
    # Each run's facts as sorted [agent, action] pairs, a new list each.
    facts = sorted(system._holding, key=lambda fact: (fact[0], str(fact[1])))
    pairs = system._spread(facts, [(agent, str(action)) for agent, action in facts])
    return {
        "name": system.name,
        "agents": [{"name": a, "role": system.roles[a]} for a in system.agents],
        "actions": [str(a) for a in system.actions],
        "runs": [{"id": run_id, "facts": list(map(list, run_facts))}
                 for run_id, run_facts in zip(system.run_ids, pairs)],
        "observers": {obs: [sorted(block, key=system.position)
                            for block in part.blocks]
                      for obs, part in system.observers.items()},
    }


def _json_fact(fact) -> tuple:
    if not isinstance(fact, (list, tuple)) or len(fact) != 2:
        raise SysFileError(f"malformed system JSON: fact {fact!r} is not an [agent, action] pair")
    return tuple(fact)


@_gc_paused()
def from_json_dict(data: dict) -> InterpretedSystem:
    try:
        agents = [(a["name"], a.get("role")) for a in data["agents"]]
        runs = [(r["id"], [_json_fact(fact) for fact in r["facts"]])
                for r in data["runs"]]
        name = data.get("name", "system")
        if not _one_word(name):
            raise SysFileError(f"malformed system JSON: name {name!r} is not one word")
        return build_system(name=name, agents=agents,
                            actions=data["actions"], runs=runs,
                            observers=data["observers"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise SysFileError(f"malformed system JSON: {exc}") from exc
    except ValidationError as exc:
        raise SysFileError(str(exc)) from exc


def _text_lines(file, path: Path):
    """The lines of the UTF-8 ``file`` as ``str.splitlines`` splits its
    text, read and decoded a chunk at a time.  A line a chunk ends inside
    goes on in the next chunk, and so does a final ``\\r``, which may start
    a ``\\r\\n``; a decoding error gives its position from the start of the
    file."""
    start, undecoded, carry = 0, b"", ""  # undecoded starts at byte `start`
    while True:
        chunk = file.read(_CHUNK)
        data = undecoded + chunk
        try:
            text, used = codecs.utf_8_decode(data, "strict", not chunk)
        except UnicodeDecodeError as exc:
            first, last = start + exc.start, start + exc.end - 1
            where = (f"byte 0x{data[exc.start]:02x} in position {first}" if first == last
                     else f"bytes in position {first}-{last}")
            raise SysFileError(f"cannot read {path}: '{exc.encoding}' codec can't decode "
                               f"{where}: {exc.reason}") from exc
        if chunk and text.endswith("\r"):
            text, used = text[:-1], used - 1
        start, undecoded = start + used, data[used:]
        text = carry + text
        lines = text.splitlines()
        carry = lines.pop() if chunk and text and text[-1] not in _BREAKS else ""
        yield from lines
        if not chunk:
            return


@_gc_paused()
def load_system(path: str | Path) -> InterpretedSystem:
    """Load a system file; ``.json`` selects the JSON encoding, anything
    else the text format.  The filename stem is the default system name,
    or ``system`` if the stem is not one word with no ``#``."""
    path = Path(path)
    try:
        if path.suffix == ".json":
            text = path.read_text(encoding="utf-8")
        else:
            with path.open("rb") as file:
                lines = _text_lines(file, path)
                try:
                    return _parse(lines, path.stem if _one_word(path.stem) else "system")
                except SysFileError:
                    # As when the whole text is decoded first, a decoding
                    # error anywhere in the file wins over a parse error.
                    for _ in lines:
                        pass
                    raise
    except OSError as exc:
        raise SysFileError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SysFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SysFileError(f"invalid JSON: {exc}", exc.lineno) from exc
    except RecursionError as exc:
        raise SysFileError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)


def save_system(system: InterpretedSystem, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(to_json_dict(system), indent=2) + "\n", encoding="utf-8")
        return
    lines = _render_lines(system)
    with path.open("w", encoding="utf-8") as file:
        while batch := "".join(islice(lines, _BATCH)):
            file.write(batch)
