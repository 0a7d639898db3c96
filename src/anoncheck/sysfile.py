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
block name its runs in the order the block gives them.
A JSON encoding of the same structure is provided for interchange.
"""
from __future__ import annotations

import json
from pathlib import Path

from .system import InterpretedSystem, ValidationError, _gc_paused, build_system


class SysFileError(ValueError):
    """System file rejected; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@_gc_paused()
def parse_system(text: str, default_name: str = "system") -> InterpretedSystem:
    name = default_name
    agents: list[tuple[str, str | None]] | None = None
    actions: list[str] | None = None
    runs: dict[str, list[tuple[str, str]]] = {}  # each run's facts, in file order
    observers: dict[str, list[list[str]]] = {}
    declared_agents: set[str] = set()
    declared_actions: set[str] = set()
    # Fact token -> its checked (agent, action): each distinct token is
    # split and checked once, and every run holding it shares the tuple.
    known: dict[str, tuple[str, str]] = {}

    def learn(token: str, run_id: str, lineno: int) -> tuple[str, str]:
        if ":" not in token:
            raise SysFileError(f"fact {token!r} must look like agent:action", lineno)
        agent, action = token.split(":", 1)
        if agent not in declared_agents:
            raise SysFileError(f"unknown agent {agent!r} in run {run_id}", lineno)
        if action not in declared_actions:
            raise SysFileError(f"unknown action {action!r} in run {run_id}", lineno)
        known[token] = (agent, action)
        return known[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            runs[run_id] = [known.get(token) or learn(token, run_id, lineno)
                            for token in rest.split()]
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
            blocks: list[list[str]] = []
            chunk = rest.strip()
            while chunk:
                if not chunk.startswith("{"):
                    raise SysFileError("blocks must be brace-delimited", lineno)
                end = chunk.find("}")
                if end < 0:
                    raise SysFileError("unclosed block brace", lineno)
                members = chunk[1:end].split()
                if not members:
                    raise SysFileError("empty partition block", lineno)
                for rid in members:
                    if rid not in runs:
                        raise SysFileError(f"unknown run {rid!r} in block", lineno)
                blocks.append(members)
                chunk = chunk[end + 1:].strip()
            observers[observer] = blocks
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
    try:
        return build_system(name=name, agents=agents, actions=actions,
                            runs=runs.items(), observers=observers)
    except ValidationError as exc:
        raise SysFileError(str(exc)) from exc


def render_system(system: InterpretedSystem) -> str:
    lines = [f"system {system.name}"]
    lines.append("agents: " + " ".join(
        f"{a}:{system.roles[a]}" if system.roles.get(a) else a
        for a in system.agents))
    lines.append("actions: " + " ".join(str(a) for a in system.actions))
    # Each run's fact text, in action declaration order, then by agent.
    position = {action: i for i, action in enumerate(system.actions)}
    facts = sorted(system._holding, key=lambda fact: (position[fact[1]], fact[0]))
    texts = system._spread(facts, [f"{agent}:{action}" for agent, action in facts])
    for run_id, rendered in zip(system.run_ids, map(" ".join, texts)):
        lines.append(f"run {run_id}: {rendered}".rstrip())
    for observer, part in system.observers.items():
        rendered = " ".join(
            "{" + " ".join(sorted(block, key=system.position)) + "}"
            for block in part.blocks)
        lines.append(f"indist {observer}: {rendered}")
    return "\n".join(lines) + "\n"


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
        # The name the text format's ``system NAME`` line can hold.
        if not isinstance(name, str) or name.split() != [name] or "#" in name:
            raise SysFileError(f"malformed system JSON: name {name!r} is not one word")
        return build_system(name=name, agents=agents,
                            actions=data["actions"], runs=runs,
                            observers=data["observers"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise SysFileError(f"malformed system JSON: {exc}") from exc
    except ValidationError as exc:
        raise SysFileError(str(exc)) from exc


@_gc_paused()
def load_system(path: str | Path) -> InterpretedSystem:
    """Load a system file; ``.json`` selects the JSON encoding, anything
    else the text format.  The filename stem is the default system name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SysFileError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SysFileError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SysFileError(f"invalid JSON: {exc}", exc.lineno) from exc
        except RecursionError as exc:
            raise SysFileError(f"invalid JSON: {exc}") from exc
        return from_json_dict(data)
    return parse_system(text, default_name=path.stem or "system")


def save_system(system: InterpretedSystem, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(to_json_dict(system), indent=2) + "\n", encoding="utf-8")
    else:
        path.write_text(render_system(system), encoding="utf-8")
