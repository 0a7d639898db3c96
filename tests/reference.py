"""A per-run evaluator written straight from the semantics, and the
property, independence and structural checks restated on it: the
reference that the bitmask evaluators are tested against.  Systems are
restated as rows (:class:`RowSystem`), built, derived, rendered and
encoded run by run, for the fact columns of ``InterpretedSystem`` and the
column algebra of ``composition`` and ``sysfile``.

An atom reads ``run.facts``; ``K[j]``/``P[j]`` are ``all``/``any`` over
``system.kernel(j, run)``.  There is no memo and no mask, so it is slow
on purpose and only fit for small systems and shallow formulas.
"""
from collections import Counter, defaultdict

from anoncheck.composition import (SequentialSchema, _distributes,
                                   independence_obligations, structural_formula)
from anoncheck.formula import (And, Atom, Const, Iff, Implies, Knows, Not, Or,
                               Poss, Verdict, _guarded_formula, render)
from anoncheck.properties import PropertyReport, _conjuncts
from anoncheck.system import (ROLES, ObserverPartition, Run, ValidationError,
                              _check_name, _coerce_action, _one_word)


class Reference:
    """Truth run by run.  With ``derive`` (as for
    :class:`~anoncheck.formula.Evaluator`) every formula is read on the
    derived system, where base formulas keep their truth."""

    all = True

    def __init__(self, system, derive=None):
        self.system = system if derive is None else derive()

    def evaluate(self, f, run):
        t = type(f)
        if t is Atom:
            return (f.agent, f.action) in run.facts
        if t is Const:
            return f.value
        if t is Not:
            return not self.evaluate(f.child, run)
        if t is And:
            return self.evaluate(f.left, run) and self.evaluate(f.right, run)
        if t is Or:
            return self.evaluate(f.left, run) or self.evaluate(f.right, run)
        if t is Implies:
            return not self.evaluate(f.left, run) or self.evaluate(f.right, run)
        if t is Iff:
            return self.evaluate(f.left, run) == self.evaluate(f.right, run)
        if t is Knows:
            return all(self.evaluate(f.child, r) for r in self.system.kernel(f.observer, run))
        if t is Poss:
            return any(self.evaluate(f.child, r) for r in self.system.kernel(f.observer, run))
        raise TypeError(f"not a formula: {f!r}")

    def values(self, f):
        return [self.evaluate(f, run) for run in self.system.runs]

    def holds(self, f):
        return all(self.values(f))

    def guarded(self, observer, rows):
        return all(self.holds(_guarded_formula(observer, guard, terms)) for guard, terms in rows)

    def distributes(self, observer, terms):
        return all(self.holds(_distributes(observer, u, p)) for u, p in terms)

    def valid(self, f):
        for run in self.system.runs:
            if not self.evaluate(f, run):
                return Verdict(False, run.run_id)
        return Verdict(True, None)


def check_property(system, spec):
    """The first run, in declaration order, where the guard holds and a
    conjunct fails, and there the first failing conjunct."""
    parts = _conjuncts(system, spec)
    ref = Reference(system)
    guard = Atom(spec.subject, spec.action)
    for run in system.runs:
        if ref.evaluate(guard, run):
            for desc, f in parts:
                if not ref.evaluate(f, run):
                    return False, (run.run_id, desc)
    return True, None


def _first_failure(system, obligations):
    ref = Reference(system)
    for label, f in obligations:
        verdict = ref.valid(f)
        if not verdict.holds:
            return False, (verdict.counterexample, label)
    return True, None


def check_independence(system, observer, schema, kind, bound=2):
    return _first_failure(system, independence_obligations(system, schema, observer,
                                                           kind, bound))


def check_structural(system, schema, cond):
    f = structural_formula(system, schema, cond)
    return _first_failure(system, [(render(f), f)])


def outcome(report: PropertyReport):
    return report.holds, report.counterexample


def _chained(schema):
    """A run's chained facts theta(x, derived(c)): x performs first(k) and
    k performs second(c), for some intermediary k."""
    intermediary = dict(zip(schema.first_actions, schema.first_params))  # use(k) -> k
    derived = dict(zip(schema.second_actions, schema.derived_actions))  # post(c) -> submit(c)

    def new_facts(facts):
        posted = defaultdict(list)  # k -> the submit(c) of each post(c) k performs
        for k, action in facts:
            if action in derived:
                posted[k].append(derived[action])
        return {(x, d) for x, action in facts if action in intermediary
                for d in posted.get(intermediary[action], ())}
    return new_facts


def _joint(schema):
    """A run's joint facts theta(x, joint(c)): x performs both a(c) and b(c)."""
    joint = {a: (b, d) for a, b, d in
             zip(schema.actions_a, schema.actions_b, schema.derived_actions)}
    return lambda facts: {(x, joint[a][1]) for x, a in facts
                          if a in joint and (x, joint[a][0]) in facts}


def derive(system, schema):
    """``system`` with the schema's derived facts added run by run, as a
    :class:`RowSystem` (no validation)."""
    new_facts = (_chained if isinstance(schema, SequentialSchema) else _joint)(schema)
    runs = tuple(Run(run.run_id, run.facts | new_facts(run.facts)) for run in system.runs)
    return RowSystem(system.name, system.agents, system.roles,
                     system.actions + schema.derived_actions, runs, system.observers)


# ---------------------------------------------------------------------------
# Systems as rows


class RowSystem:
    """A system held as its rows: one :class:`Run` per run, with the
    frozenset of its facts.  ``anoncheck`` holds fact columns instead and
    builds rows on demand; this is what it is tested against."""

    def __init__(self, name, agents, roles, actions, runs, observers):
        self.name, self.agents, self.roles, self.actions = name, agents, roles, actions
        self.runs, self.observers = runs, observers
        self._index = {run.run_id: i for i, run in enumerate(runs)}

    def position(self, run_id):
        return self._index[run_id]

    def run(self, run_id):
        return self.runs[self._index[run_id]]

    def kernel(self, observer, run):
        block = next(b for b in self.observers[observer].blocks if run.run_id in b)
        return tuple(r for r in self.runs if r.run_id in block)

    def key(self):
        """What ``==`` and ``hash`` compare: declaration sets, the runs in
        order with their facts, and the partitions."""
        return (frozenset(self.agents), frozenset(self.roles.items()), frozenset(self.actions),
                tuple((r.run_id, r.facts) for r in self.runs),
                frozenset((obs, frozenset(part.blocks)) for obs, part in self.observers.items()))


def holding(system, fact):
    """The runs holding ``fact``, as a run mask, from a scan of every run."""
    return sum(1 << i for i, run in enumerate(system.runs) if fact in run.facts)


def build(*, agents, actions, runs, observers, name="system"):
    """:func:`~anoncheck.system.build_system` row by row: the same checks,
    in the same order and with the same messages, and each run's facts kept
    as a frozenset."""
    if not _one_word(name):
        raise ValidationError(f"bad system name {name!r}")
    roles = {}
    for entry in agents:
        agent, role = (entry, None) if isinstance(entry, str) else entry
        _check_name(agent, "agent")
        if role is not None and role not in ROLES:
            raise ValidationError(f"unknown role {role!r} for agent {agent!r}")
        if agent in roles:
            raise ValidationError(f"duplicate agent {agent!r}")
        roles[agent] = role
    if not roles:
        raise ValidationError("a system needs at least one agent")
    declared = []
    for entry in actions:
        act = _coerce_action(entry)
        if act in declared:
            raise ValidationError(f"duplicate action {act}")
        declared.append(act)
    rows = []
    for run_id, facts in runs:
        _check_name(run_id, "run")
        if any(r.run_id == run_id for r in rows):
            raise ValidationError(f"duplicate run id {run_id!r}")
        checked = set()
        for fact in facts:
            agent, act = fact[0], _coerce_action(fact[1] if len(fact) == 2 else fact[1:])
            if agent not in roles:
                raise ValidationError(f"undeclared agent {agent!r} in run {run_id!r}")
            if act not in declared:
                raise ValidationError(f"undeclared action {act} in run {run_id!r}")
            checked.add((agent, act))
        rows.append(Run(run_id, frozenset(checked)))
    if not rows:
        raise ValidationError("a system needs at least one run")
    ids = [r.run_id for r in rows]
    partitions = {}
    for obs, blocks in observers.items():
        if obs not in roles:
            raise ValidationError(f"observer {obs!r} is not a declared agent")
        seen, norm = set(), []
        for block in map(tuple, blocks):
            if not block:
                raise ValidationError(f"empty indistinguishability block for {obs!r}")
            for rid in block:
                if rid not in ids:
                    raise ValidationError(f"unknown run {rid!r} in partition of {obs!r}")
                if rid in seen:
                    raise ValidationError(f"run {rid!r} appears in two blocks of {obs!r}")
            if len(set(block)) < len(block):
                rid = Counter(block).most_common(1)[0][0]
                raise ValidationError(f"run {rid!r} appears twice in a block of {obs!r}")
            seen.update(block)
            norm.append(frozenset(block))
        if len(seen) < len(ids):
            missing = ", ".join(sorted(set(ids) - seen))
            raise ValidationError(f"partition of {obs!r} does not cover runs: {missing}")
        norm.sort(key=lambda b: min(map(ids.index, b)))
        partitions[obs] = ObserverPartition(obs, tuple(norm))
    if not partitions:
        raise ValidationError("a system needs at least one observer partition")
    return RowSystem(name, tuple(roles), roles, tuple(declared), tuple(rows), partitions)


def parse(text):
    """The ``build_system`` arguments of a well-formed ``.sys`` text."""
    spec = {"name": "system", "agents": [], "actions": [], "runs": [], "observers": {}}
    for line in text.splitlines():
        word, _, rest = line.split("#", 1)[0].strip().partition(" ")
        if word == "system":
            spec["name"] = rest
        elif word == "agents:":
            spec["agents"] = [tuple(t.split(":")) if ":" in t else t for t in rest.split()]
        elif word == "actions:":
            spec["actions"] = rest.split()
        elif word == "run":
            run_id, facts = rest.split(":", 1)
            spec["runs"].append((run_id.strip(), [tuple(t.split(":", 1)) for t in facts.split()]))
        elif word == "indist":
            observer, blocks = rest.split(":", 1)
            blocks = blocks.replace("}", "").split("{")[1:]
            spec["observers"][observer.strip()] = [block.split() for block in blocks]
    return spec


def render_system(system):
    """The ``.sys`` text of a system, from its rows."""
    position = {action: i for i, action in enumerate(system.actions)}
    lines = [f"system {system.name}",
             "agents: " + " ".join(f"{a}:{system.roles[a]}" if system.roles.get(a) else a
                                   for a in system.agents),
             "actions: " + " ".join(map(str, system.actions))]
    for run in system.runs:
        facts = sorted(run.facts, key=lambda f: (position[f[1]], f[0]))
        lines.append(f"run {run.run_id}: {' '.join(f'{a}:{act}' for a, act in facts)}".rstrip())
    for observer, part in system.observers.items():
        lines.append(f"indist {observer}: " + " ".join(
            "{" + " ".join(sorted(block, key=system.position)) + "}" for block in part.blocks))
    return "\n".join(lines) + "\n"


def to_json_dict(system):
    """The JSON encoding of a system, from its rows."""
    return {
        "name": system.name,
        "agents": [{"name": a, "role": system.roles[a]} for a in system.agents],
        "actions": [str(a) for a in system.actions],
        "runs": [{"id": run.run_id, "facts": sorted([a, str(act)] for a, act in run.facts)}
                 for run in system.runs],
        "observers": {obs: [sorted(block, key=system.position) for block in part.blocks]
                      for obs, part in system.observers.items()},
    }
