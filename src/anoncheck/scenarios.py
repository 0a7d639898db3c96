"""Searches for refutations of the registered claims over generated systems.

The claims of ``registry`` are theorems, so REFUTED must never occur
with full hypotheses; the sweep and falsify entry points exist to hammer
on exactly that, and to demonstrate hypothesis necessity by re-running
searches with a hypothesis dropped.  Both walk one batch stream of
generated systems, the exhaustive universe and then a random pool, and
every generated system is assembled by one builder, :meth:`_Shape.system`.
"""
from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import accumulate, combinations, groupby, islice, permutations
from operator import itemgetter

from .composition import _conjuncts
from .formula import SlotPlanes
from .registry import (_FLAVORS, CLAIMS, HYPOTHESIS_IMPLICATIONS, CheckSuite, ClaimId,
                       ClaimReport, _claim, _flavor, check_claim)
from .system import (Action, InterpretedSystem, ObserverPartition, ValidationError,
                     _grid_columns, _mask, _transpose, build_system)


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generator configuration.

    Two fact styles: ``uniform`` draws each stage fact independently with
    probability one half (no structure imposed, degenerate systems on
    purpose); ``matching`` makes every first-stage agent perform exactly one
    first-stage action and every intermediary exactly one second-stage
    action (injectively when sizes allow), with per-system coin flips
    deciding whether each stage is constant across runs.  The matching style
    reaches the structured hypotheses (exhaustivity, exclusivity, constant
    stages) that uniform sampling almost never hits.
    """

    n_real: int = 2
    n_pseudo: int = 2
    n_articles: int = 2
    max_runs: int = 4
    partition: str = "single"  # or "random"
    seed: int = 0
    budget: int = 10_000
    flavor: str = "sequential"  # or "parallel"
    style: str = "uniform"  # or "matching"

    def __post_init__(self):
        if min(self.n_real, self.n_pseudo, self.n_articles, self.max_runs) < 1:
            raise ValidationError("generator counts must be at least 1")
        if self.partition not in ("single", "random"):
            raise ValidationError(f"unknown partition policy {self.partition!r}")
        _flavor(self.flavor)
        if self.style not in ("uniform", "matching"):
            raise ValidationError(f"unknown generator style {self.style!r}")
        if self.budget < 0:
            raise ValidationError("budget must be non-negative")


def _row_bounds(facts) -> list[int]:
    """Where each row of ``facts`` starts, then where the last ends: a row
    is the consecutive facts of one agent and one action family."""
    rows = groupby(facts, key=lambda fact: (fact[0], fact[1].family))
    return list(accumulate((len(list(row)) for _, row in rows), initial=0))


def _matching_choices(cfg: GenConfig, rng: random.Random, n_runs: int) -> list[list[int]]:
    """Per run, the one fact (counted from 1) of each fact row that holds,
    for the matching style (see GenConfig)."""
    def first_map():
        return [rng.randrange(1, cfg.n_pseudo + 1) for _ in range(cfg.n_real)]

    def second_map():
        if cfg.n_pseudo <= cfg.n_articles:
            return rng.sample(range(1, cfg.n_articles + 1), cfg.n_pseudo)
        return [rng.randrange(1, cfg.n_articles + 1) for _ in range(cfg.n_pseudo)]

    def pair_map():
        return [rng.randrange(1, cfg.n_articles + 1) for _ in range(2 * cfg.n_real)]

    first_const = rng.random() < 0.5
    second_const = rng.random() < 0.5
    if cfg.flavor == "sequential":
        fixed_first, fixed_second = first_map(), second_map()
        return [(fixed_first if first_const else first_map())
                + (fixed_second if second_const else second_map())
                for _ in range(n_runs)]
    fixed_pairs = pair_map()
    return [fixed_pairs if first_const else pair_map() for _ in range(n_runs)]


def _draw(cfg: GenConfig, rng: random.Random, bounds) -> tuple[list[int], list[int]]:
    """The draws of one random system: per run, its fact set and its block
    label of ``j``; ``bounds`` are the :func:`_row_bounds` of its facts."""
    n_runs = rng.randint(1, cfg.max_runs)
    if cfg.style == "matching":
        runs = [sum(1 << start + c - 1 for start, c in zip(bounds, choices))
                for choices in _matching_choices(cfg, rng, n_runs)]
    else:
        runs = [sum(1 << b for b in range(bounds[-1]) if rng.random() < 0.5)
                for _ in range(n_runs)]
    if cfg.partition == "single" or n_runs == 1:
        return runs, [0] * n_runs
    n_blocks = rng.randint(1, n_runs)
    return runs, [rng.randrange(n_blocks) for _ in range(n_runs)]


def random_system(cfg: GenConfig) -> InterpretedSystem:
    """One random system, a pure function of ``cfg`` (in particular its seed)."""
    shape = _shape_of(cfg)
    return shape.system(f"rnd-{cfg.flavor}-{cfg.seed}",
                        *_draw(cfg, random.Random(cfg.seed), shape.bounds))


# ---------------------------------------------------------------------------
# Batches: generated systems decided together


#: Systems decided together, as one bit vector.
_CHUNK = 2048


class _Shape:
    """One generated declaration shape: its facts, its derived facts'
    conjunct pairs (``composition._conjuncts``), which its batches compute
    derived facts from, and its suite, the checkers whose formulas every
    shape shares.  ``ref`` is the declaration, with every fact in its one
    run; a drawn fact set is a bit mask over ``facts``, and ``bounds`` are
    their :func:`_row_bounds`.
    """

    def __init__(self, flavor: str, n_real: int, n_pseudo: int, n_articles: int):
        self.flavor = flavor
        reals = [f"i{n}" for n in range(1, n_real + 1)]
        params = [f"c{n}" for n in range(1, n_articles + 1)]
        agents = [(i, "real") for i in reals]
        if flavor == "sequential":
            pseudos = [f"k{n}" for n in range(1, n_pseudo + 1)]
            agents += [(k, "pseudo") for k in pseudos]
            uses = [Action("use", k) for k in pseudos]
            posts = [Action("post", c) for c in params]
            actions = uses + posts
            self.facts = ([(i, u) for i in reals for u in uses]
                          + [(k, p) for k in pseudos for p in posts])
        else:
            stages = ([Action("act_a", c) for c in params], [Action("act_b", c) for c in params])
            actions = stages[0] + stages[1]
            self.facts = [(i, a) for i in reals for stage in stages for a in stage]
        self.bounds = _row_bounds(self.facts)
        self.ref = build_system(name="ref", agents=agents + [("j", "observer")], actions=actions,
                                runs=[("r1", self.facts)], observers={"j": [["r1"]]})
        schema = _flavor(flavor).infer_schema(self.ref)
        self._derived = _conjuncts(self.ref, schema)
        self.suite = CheckSuite(flavor, schema, "j", self.ref)

    def system(self, name: str, runs, labels) -> InterpretedSystem:
        """The system ``name`` of one draw (see :func:`_draw`): run ``r{n}``
        holds the facts of mask ``runs[n - 1]`` and lies in block
        ``labels[n - 1]`` of ``j``.

        Skipping :func:`build_system` is safe: ``ref`` passed it with every
        fact in its one run, so agents, roles, actions and every run's facts
        are validated; the run ids are distinct, and the blocks, listed by
        first member, partition them.
        """
        blocks: dict[int, list[str]] = {}
        for n, label in enumerate(labels, start=1):
            blocks.setdefault(label, []).append(f"r{n}")
        columns = _transpose([*runs], len(self.facts))  # a copy: draws are kept
        return InterpretedSystem(
            name, self.ref.agents, self.ref.roles, self.ref.actions,
            tuple(f"r{n}" for n in range(1, len(runs) + 1)),
            {fact: mask for fact, mask in zip(self.facts, columns) if mask},
            {"j": ObserverPartition("j", tuple(map(frozenset, blocks.values())))})

    def batch(self, planes, width: int, slots: int, blocks=None) -> SlotPlanes:
        """``width`` systems of ``slots`` slots: bit ``i * width + s`` of
        ``planes[b]`` is fact ``b`` at slot ``i`` of system ``s``, and
        ``blocks`` are as in :class:`SlotPlanes`.  A fact the declaration
        does not list holds nowhere."""
        return SlotPlanes(dict(zip(self.facts, planes)), width, slots, blocks, self._derived)

    def drawn_batch(self, draws) -> SlotPlanes:
        """The drawn systems (see :func:`_draw`) as one batch, transposed
        slot-major (slot 0 of every system, then slot 1, ...; a shorter system
        repeats its first run): their runs' fact sets give every fact's
        planes, and the masks ``1 << v`` of runs in block ``v`` of ``j`` every block's."""
        slots = max(len(runs) for runs, _ in draws)
        rows = [(runs[i], 1 << labels[i]) if i < len(runs) else (runs[0], 1 << labels[0])
                for i in range(slots) for runs, labels in draws]
        facts, blocks = map(list, zip(*rows))
        return self.batch(_transpose(facts, len(self.facts)), len(draws), slots,
                          _transpose(blocks, max(blocks).bit_length()))


@lru_cache(maxsize=64)
def _shape(flavor: str, n_real: int, n_pseudo: int, n_articles: int) -> _Shape:
    return _Shape(flavor, n_real, n_pseudo, n_articles)


def _shape_of(cfg: GenConfig) -> _Shape:
    """The shape of ``cfg``'s systems; parallel declarations have no pseudonyms."""
    n_pseudo = cfg.n_pseudo if cfg.flavor == "sequential" else 1
    return _shape(cfg.flavor, cfg.n_real, n_pseudo, cfg.n_articles)


# ---------------------------------------------------------------------------
# The exhaustive universe


@lru_cache(maxsize=None)
def _universe_chunks(width: int):
    """(system count, planes) per chunk of :data:`_CHUNK` systems of the
    universe over ``width`` facts: a one-run system per fact set, then a
    two-run system per pair of them, in lexicographic order.  A chunk's
    planes are laid out as :meth:`_Shape.batch` takes them, over two slots
    (a one-run system repeats its run), and come from one grid: the bytes of
    every system's fact set at slot 0, then at slot 1.  So ``width`` is at
    most 8: above, ``bytes`` raises ``ValueError``."""
    sets = range(1 << width)
    slots = [b"".join(bytes(map(itemgetter(min(i, n - 1)), combinations(sets, n))) for n in (1, 2))
             for i in (0, 1)]
    total = len(slots[0])
    return [(min(_CHUNK, total - start),
             _grid_columns(b"".join(slot[start:start + _CHUNK] for slot in slots)[::-1], width))
            for start in range(0, total, _CHUNK)]


@lru_cache(maxsize=None)
def _universe(flavor: str):
    """One flavor's exhaustive universe: the 2/2/2 shape, and its
    :func:`_universe_chunks`, built once per process for both flavors (each
    has 8 facts).  Its systems are the one-run systems ``x{m}``, then
    ``x{a}-{b}`` for every ``a < b``, in one block."""
    shape = _shape(flavor, 2, 2, 2)
    return shape, _universe_chunks(len(shape.facts))


def _universe_system(shape: _Shape, count: int, planes, bit: int) -> InterpretedSystem:
    """System ``bit`` of a universe chunk of ``count`` systems, read back
    from its planes: its runs are the distinct fact sets of its two slots."""
    sets = list(dict.fromkeys(sum((p >> i * count + bit & 1) << b for b, p in enumerate(planes))
                              for i in (0, 1)))
    return shape.system("x" + "-".join(map(str, sets)), sets, [0] * len(sets))


def exhaustive_systems(flavor: str = "sequential"):
    """Every system over the 2/2/2 fact universe with at most two distinct
    runs and a single observer block, in canonical order, each read back
    from the chunk planes :func:`_universe` shares between the flavors."""
    shape, chunks = _universe(flavor)
    for count, planes in chunks:
        yield from map(partial(_universe_system, shape, count, planes), range(count))


# ---------------------------------------------------------------------------
# Sweeps and falsification


@dataclass
class ClaimStats:
    checked: int = 0
    confirmed: int = 0
    vacuous: int = 0
    refuted: int = 0

    @property
    def vacuity_rate(self) -> float:
        return self.vacuous / self.checked if self.checked else 0.0


#: The most refutations and implication violations a sweep lists.
_MAX_REPORTED = 16


@dataclass
class SweepReport:
    stats: dict[ClaimId, ClaimStats]
    #: The first :data:`_MAX_REPORTED` refutations, in sweep order.
    refutations: list[tuple[ClaimId, InterpretedSystem]]
    #: The first :data:`_MAX_REPORTED` implication violations, in sweep order.
    implication_violations: list[tuple[ClaimId, ClaimId, str]]
    systems_checked: dict[str, int]
    elapsed: float
    #: Every implication violation, listed or not.
    implication_violations_total: int = 0


def _random_pool(flavor: str, n_random: int, seed: int):
    """Seeded stream of random system configurations with varied sizes,
    cycling through both partition policies and both generator styles
    deterministically."""
    master = random.Random((seed, flavor).__repr__())
    for idx in range(n_random):
        nr = master.randint(1, 3)
        np_ = master.randint(1, 3)
        nc = master.randint(1, 3)
        child = master.getrandbits(48)
        policy = "single" if idx % 2 == 0 else "random"
        style = "uniform" if (idx // 2) % 2 == 0 else "matching"
        yield GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                        partition=policy, seed=child, flavor=flavor, style=style)


#: The most pooled configurations held back, waiting for their batch.
_MAX_PENDING = 8 * _CHUNK


def _pool_batches(pool):
    """(shape, members) per batch of the (configuration, seed) items of
    ``pool``: the members are (pool index, item) pairs of one shape, of
    either partition policy, at most :data:`_CHUNK` of them, in pool order.
    The pool is read :data:`_MAX_PENDING` items at a time, and each such
    window is batched by shape on its own."""
    items = enumerate(pool)
    while window := list(islice(items, _MAX_PENDING)):
        groups = defaultdict(list)
        for member in window:
            groups[_shape_of(member[1][0])].append(member)
        for shape, group in groups.items():
            for start in range(0, len(group), _CHUNK):
                yield shape, group[start:start + _CHUNK]


def _batches(flavor: str, pool, exhaustive: bool = True):
    """The systems of one flavor, a batch at a time: the exhaustive
    universe's chunks, unless ``exhaustive`` is false, then the random
    systems of the (configuration, seed) items of ``pool``, batched by shape
    (see :func:`_pool_batches`).  Yields (phase, suite, context, positions,
    system_at) per batch, the phase being ``"exhaustive"`` or ``"random"``:
    bit ``s`` of the context is the system at ``positions[s]`` of this
    stream, and until the next batch is drawn, ``system_at(s)`` builds it."""
    base = 0
    if exhaustive:
        shape, chunks = _universe(flavor)
        for count, planes in chunks:
            yield ("exhaustive", shape.suite, shape.batch(planes, count, 2),
                   range(base, base + count), partial(_universe_system, shape, count, planes))
            base += count
    for shape, members in _pool_batches(pool):
        draws = [_draw(cfg, random.Random(seed), shape.bounds) for _, (cfg, seed) in members]
        yield ("random", shape.suite, shape.drawn_batch(draws),
               [base + idx for idx, _ in members],
               lambda bit: shape.system(f"rnd-{flavor}-{members[bit][1][1]}", *draws[bit]))


def _held(holds, names, held):
    """``held`` narrowed to the systems on which every checker of ``names``
    holds, stopping once none is left."""
    for name in names:
        if not held:
            break
        held &= holds(name)
    return held


def _in_order(vectors):
    """(bit, rank, key) for every set bit of the ``(key, vector)`` pairs: by
    bit, then rank, the position of the pair."""
    pending = 0
    for _, v in vectors:
        pending |= v
    while pending:
        low = pending & -pending
        for rank, (key, v) in enumerate(vectors):
            if v & low:
                yield low.bit_length() - 1, rank, key
        pending ^= low


def _sweep_batch(suite: CheckSuite, ctx, flavor: str, claim_ids, stats):
    """Decide ``claim_ids`` on the systems of ``ctx`` and add them to
    ``stats``.  Returns the vectors of refuted claims and of violated
    implication hypotheses, as ``(key, vector)`` pairs for :func:`_in_order`."""
    cache = {}

    def holds(name: str):
        v = cache.get(name)
        if v is None:
            v = cache[name] = suite.checker(name).holds(ctx)
        return v

    size = ctx.all.bit_count()
    refuted = []
    for cid in claim_ids:
        cdef = CLAIMS[cid]
        held = _held(holds, cdef.hypotheses, ctx.all)
        bad = held & ~holds(cdef.conclusion) if held else 0
        n_held, n_bad = held.bit_count(), bad.bit_count()
        st = stats[cid]
        st.checked += size
        st.vacuous += size - n_held
        st.confirmed += n_held - n_bad
        st.refuted += n_bad
        refuted.append((cid, bad))
    violated = []
    for stronger, weaker in HYPOTHESIS_IMPLICATIONS:
        if CLAIMS[stronger].flavor != flavor:
            continue
        held = _held(holds, CLAIMS[stronger].hypotheses, ctx.all)
        if held:
            violated += [((stronger, weaker, n), held & ~holds(n))
                         for n in CLAIMS[weaker].hypotheses]
    return refuted, violated


def sweep(*, claims=None, n_random: int = 100_000, seed: int = 2026,
          exhaustive: bool = True) -> SweepReport:
    """Check registered claims over the exhaustive small universe plus a
    seeded random pool (per flavor).  REFUTED entries in the result indicate
    a genuine bug somewhere: the claims are theorems.

    Each flavor's systems come from one batch stream (:func:`_batches`):
    the universe in chunks, then the pool by declaration shape.  Refutations
    and implication violations are listed by system, in universe then pool
    order, and then by claim, implication and hypothesis.
    """
    if n_random < 0:
        raise ValidationError("n_random must be non-negative")
    if claims is None:
        claims = [cid for cid, cdef in CLAIMS.items() if not cdef.witness_only]
    claims = list(dict.fromkeys(claims))  # a repeated id is checked once
    for cid in claims:
        _claim(cid, search="sweep")
    started = time.monotonic()
    stats = {cid: ClaimStats() for cid in claims}
    # The first entries in sweep order, as (position, rank in the system, entry).
    refutations: list = []
    violations: list = []
    n_violations = 0
    systems_checked = dict.fromkeys(_FLAVORS, 0)
    for flavor in _FLAVORS:
        flavor_claims = [cid for cid in claims if CLAIMS[cid].flavor == flavor]
        if not flavor_claims:
            continue
        offset = sum(systems_checked.values())
        pool = ((cfg, cfg.seed) for cfg in _random_pool(flavor, n_random, seed))
        for _, suite, ctx, positions, system_at in _batches(flavor, pool, exhaustive):
            systems_checked[flavor] += ctx.all.bit_count()
            refuted, violated = _sweep_batch(suite, ctx, flavor, flavor_claims, stats)
            n_violations += sum(v.bit_count() for _, v in violated)
            refutations = sorted(refutations + [
                (offset + positions[bit], rank, (cid, system_at(bit)))
                for bit, rank, cid in islice(_in_order(refuted), _MAX_REPORTED)])[:_MAX_REPORTED]
            violations = sorted(violations + [
                (offset + positions[bit], rank,
                 (stronger, weaker, f"{system_at(bit).name}: {name} fails"))
                for bit, rank, (stronger, weaker, name)
                in islice(_in_order(violated), _MAX_REPORTED)])[:_MAX_REPORTED]
    return SweepReport(stats, [entry for *_, entry in refutations],
                       [entry for *_, entry in violations], systems_checked,
                       time.monotonic() - started, n_violations)


@dataclass
class FalsifyResult:
    claim_id: ClaimId
    dropped: tuple[str, ...]
    found: InterpretedSystem | None
    report: ClaimReport | None
    examined: int
    hypotheses_held: int
    phase: str | None  # "exhaustive" or "random" when found

    @property
    def vacuous(self) -> int:
        return self.examined - self.hypotheses_held


def falsify(claim_id: ClaimId, cfg: GenConfig | None = None, *,
            drop=()) -> FalsifyResult:
    """Search for a system whose (remaining) hypotheses hold while the
    conclusion fails, along one batch stream (:func:`_batches`): the tiny
    2/2/2 universe (at most two distinct runs, single observer block), then
    ``cfg.budget`` random systems of ``cfg``, seeded from ``cfg.seed``.  The
    first system in search order that refutes the claim is reported, with
    its phase.  With no dropped hypothesis this searches for refutations of
    a theorem and is expected to come back empty.
    """
    dropped = tuple(dict.fromkeys(drop))
    cdef = _claim(claim_id, dropped, "falsify")
    cfg = replace(cfg or GenConfig(), flavor=cdef.flavor)
    hyp_names = [n for n in cdef.hypotheses if n not in dropped]
    rng = random.Random(cfg.seed)
    pool = ((cfg, rng.getrandbits(48)) for _ in range(cfg.budget))
    examined = held = 0
    for phase, suite, ctx, _, system_at in _batches(cdef.flavor, pool):
        h = _held(lambda name: suite.checker(name).holds(ctx), hyp_names, ctx.all)
        bad = h & ~suite.checker(cdef.conclusion).holds(ctx) if h else 0
        if bad:
            first = (bad & -bad).bit_length() - 1
            system = system_at(first)
            report = check_claim(claim_id, system, drop=dropped)
            return FalsifyResult(claim_id, dropped, system, report, examined + first + 1,
                                 held + (h & ((2 << first) - 1)).bit_count(), phase)
        examined += ctx.all.bit_count()
        held += h.bit_count()
    return FalsifyResult(claim_id, dropped, None, None, examined, held, None)


# ---------------------------------------------------------------------------
# Mixer chains


def mixer_chain(perm1, perm2, observed_indistinguishability: str = "single",
                messages=None) -> InterpretedSystem:
    """A two-mixer relay modeled as a two-stage system.

    Stage one maps each incoming message to an intermediate slot
    (theta(in_m, use(mid_x))); stage two maps slots to outgoing messages
    (theta(mid_x, post(out_m))).  Each run fixes one concrete pair of
    mappings; ``perm1``/``perm2`` select the run families:

    - a dict: that fixed mapping in every run;
    - ``"all"``: all permutations of the message set;
    - ``"inverse"`` (perm2 only): the run's second mapping is the inverse
      of its first, making the end-to-end relation the identity.

    ``messages`` supplies the domain when neither argument is a dict.
    ``observed_indistinguishability`` is ``"single"`` (one block: the
    observer sees nothing) or ``"discrete"`` (all runs distinguishable).
    """
    domains = [sorted(p.keys()) for p in (perm1, perm2) if isinstance(p, dict)]
    if messages is not None:
        msgs = list(messages)
    elif domains:
        msgs = domains[0]
    else:
        raise ValidationError("mixer_chain needs messages when both stages are symbolic")
    if not msgs or len(set(msgs)) != len(msgs):
        raise ValidationError("messages must be a non-empty set of distinct names")
    for p in (perm1, perm2):
        if isinstance(p, dict) and not (set(p) == set(p.values()) == set(msgs)):
            raise ValidationError("permutation domain does not match the message set")
    if perm1 == "inverse":
        raise ValidationError("'inverse' only makes sense for the second stage")
    if observed_indistinguishability not in ("single", "discrete"):
        raise ValidationError(
            f"unknown indistinguishability policy {observed_indistinguishability!r}")

    def family(p):
        if isinstance(p, dict):
            return [{m: p[m] for m in msgs}]
        if p == "all":
            return [dict(zip(msgs, image)) for image in permutations(msgs)]
        raise ValidationError(f"cannot interpret {p!r} as a permutation family")

    # Run r{a * width + b + 1} pairs first mapping a with second mapping b (or
    # its inverse): a use holds on a slice of runs, a post on every width-th.
    firsts = family(perm1)
    seconds = [] if perm2 == "inverse" else family(perm2)
    width = len(seconds) or 1
    ones = b"\1" * width
    columns: dict = defaultdict(partial(bytearray, len(firsts) * width))
    for a, p1 in enumerate(firsts):
        for m, x in p1.items():
            columns[f"in_{m}", Action("use", f"mid_{x}")][a * width:(a + 1) * width] = ones
            if not seconds:
                columns[f"mid_{x}", Action("post", f"out_{m}")][a] = 1
    for b, p2 in enumerate(seconds):
        for x, m in p2.items():
            columns[f"mid_{x}", Action("post", f"out_{m}")][b::width] = b"\1" * len(firsts)

    # Built with every fact in its one run, the declaration is checked.
    ref = build_system(
        name="mixer_chain",
        agents=([(f"in_{m}", "real") for m in msgs] + [(f"mid_{m}", "pseudo") for m in msgs]
                + [("j", "observer")]),
        actions=[f"use(mid_{m})" for m in msgs] + [f"post(out_{m})" for m in msgs],
        runs=[("r1", columns)], observers={"j": [["r1"]]})
    run_ids = tuple(f"r{i}" for i in range(1, len(firsts) * width + 1))
    blocks = [run_ids] if observed_indistinguishability == "single" else zip(run_ids)
    return InterpretedSystem(ref.name, ref.agents, ref.roles, ref.actions, run_ids,
                             {fact: _mask(col) for fact, col in columns.items()},
                             {"j": ObserverPartition("j", tuple(map(frozenset, blocks)))})
