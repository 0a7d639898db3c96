"""Command line front end.

Exit codes: 0 when the queried property/claim holds (or a falsification
search comes back empty), 1 when it fails, is refuted, or a counterexample
is found, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

from . import __version__
from .composition import (IndependenceKind, check_independence, derive_sequential,
                          standard_parallel_schema, standard_sequential_schema)
from .formula import (Evaluator, ParseError, check_names,
                      parse as parse_formula, render)
from .properties import _FORMS, PropertyReport, PropertySpec, check_property
from .registry import (_FLAVORS, CLAIMS, DATA_DIR, DEFAULT_SYSTEMS, FIXTURE_NAMES,
                       ClaimReport, ClaimVerdict, check_claim, fixture_system)
from .scenarios import GenConfig, falsify
from .sysfile import SysFileError, load_system, render_system, save_system, to_json_dict
from .system import _NAME_RE, Action, InterpretedSystem, ValidationError


class CliError(Exception):
    """Input rejected before any checking happened (exit code 2)."""


def _resolve_system(value: str) -> InterpretedSystem:
    """A bundled fixture name, a file path, or the bare filename of a
    bundled .sys file (a real file of the same name wins)."""
    if value in FIXTURE_NAMES:
        return fixture_system(value)
    path = Path(value)
    if not path.exists():
        bundled = DATA_DIR / value
        if path.name == value and bundled.exists():
            return load_system(bundled)
    return load_system(path)


# ---------------------------------------------------------------------------
# Surface syntax for properties and schemas


def _nesting(text: str, brackets: str = "(){}"):
    """Each character of ``text`` with the number of ``brackets`` pairs open
    after it; a bracket that closes nothing, or leaves another open, or stays
    open is reported as unbalanced."""
    opened = []
    for ch in text:
        if ch in brackets[::2]:
            opened.append(ch)
        elif ch in brackets[1::2]:
            if not opened or brackets.index(opened[-1]) + 1 != brackets.index(ch):
                raise CliError(f"unbalanced {(opened or [ch])[-1]!r} in {text!r}")
            opened.pop()
        yield ch, len(opened)
    if opened:
        raise CliError(f"unbalanced {opened[-1]!r} in {text!r}")


def _split_top_level(text: str) -> list[str]:
    parts, current = [], []
    for ch, depth in _nesting(text):
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _braced_list(text: str, what: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise CliError(f"{what} must be a braced list like {{x,y}}, got {text!r}")
    items = [item.strip() for item in text[1:-1].split(",") if item.strip()]
    if not items:
        raise CliError(f"{what} must not be empty")
    return items


def parse_property_text(text: str) -> PropertySpec:
    """Parse the property surface syntax, e.g.

        anon-upto(i1, use(k1), {i1,i2}, j)
        priv-upto(k1, post(c1), {post(c1),post(c2)}, j)
        min-anon(i1, use(k1), j)      min-priv(k1, post(c1), j)
        max-onym(i1, use(k1), j)      max-ident(k1, post(c1), j)
        role-int(i1, use(k1), j)      role-int(i1, use(k1), {use(k1),use(k2)}, j)
    """
    text = text.strip()
    open_at = text.find("(")
    if open_at < 0 or not text.endswith(")"):
        raise CliError(f"expected KIND(args), got {text!r}")
    word = text[:open_at].strip()
    args = _split_top_level(text[open_at + 1:-1])

    def act(s: str) -> Action:
        try:
            return Action.parse(s)
        except ValidationError as exc:
            raise CliError(str(exc)) from None

    kind = next((k for k, form in _FORMS.items() if form.word == word), None)
    if kind is None:
        raise CliError(f"unknown property kind {word!r}")
    # four arguments when the kind's set is required or given, else three
    field, required = _FORMS[kind].field, _FORMS[kind].required
    n = 3 + (field is not None and (required or len(args) != 3))
    if len(args) != n:
        problem = (f"not enough values to unpack (expected {n}, got {len(args)})"
                   if len(args) < n else f"too many values to unpack (expected {n})")
        raise CliError(f"property {word!r}: wrong arguments ({problem})")
    subject, action, observer = args[0], act(args[1]), args[-1]
    sets = {}
    if n == 4:
        items = _braced_list(args[2], field.replace("_", " "))
        sets[field] = tuple(items if field == "anonymity_set" else map(act, items))
    return PropertySpec(kind, subject, action, observer, **sets)


def _collapse_braces(text: str) -> str:
    """Remove whitespace inside {...} so whitespace-splitting is safe."""
    return "".join(ch for ch, depth in _nesting(text, "{}") if not (depth and ch.isspace()))


#: Each schema flavor by its first word: its name, the builder that infers
#: the rest of the schema, the builder's default family names (the two
#: stages', then the derived family's), and the schema field that a
#: ``:[LABEL=]{x,y}`` after each of those names fills, if it may have one.
_SCHEMA_WORDS = {
    "seq": ("sequential", standard_sequential_schema, ("use", "post", "submit"),
            ("first_params", "second_params", None)),
    "par": ("parallel", standard_parallel_schema, ("act_a", "act_b", "joint"),
            (None, None, "params")),
}


def parse_schema_text(text: str, system: InterpretedSystem):
    """Parse the schema surface syntax.  Returns ``(flavor, schema)``.

    One grammar serves both flavors::

        seq [STAGE STAGE] [=> DERIVED]          STAGE: FAMILY[:[LABEL=]{x,y}]
        par [FAMILY + FAMILY] [=> DERIVED [: [LABEL=]{x,y}]]

    e.g. ``seq use:I_P={k1,k2} post:C={c1,c2} => submit`` and
    ``par act_a + act_b => joint : C={c1,c2}``.  The LABEL names a parameter
    set in the schema notation and is not interpreted.  Whatever is left out
    is inferred from the system's declared actions: the families default to
    use/post (act_a/act_b), the derived family to submit (joint), and each
    parameter set to the parameters of its family's actions.
    """
    tokens = _collapse_braces(text.strip()).split()
    if not tokens:
        raise CliError("empty schema")
    if tokens[0] not in _SCHEMA_WORDS:
        raise CliError(f"schema must start with 'seq' or 'par', got {tokens[0]!r}")
    flavor, build, names, fields = _SCHEMA_WORDS[tokens[0]]
    stages, tail = tokens[1:], names[2]
    if "=>" in stages:
        arrow = stages.index("=>")
        stages, tail = stages[:arrow], " ".join(stages[arrow + 1:])
    if flavor == "parallel" and stages:
        if len(stages) != 3 or stages[1] != "+":
            raise CliError("parallel schema families must be written 'FAMILY_A + FAMILY_B'")
        stages = stages[::2]
    elif len(stages) not in (0, 2):
        raise CliError("sequential schema takes both stages or neither, e.g. "
                       "'seq use:I_P={k1,k2} post:C={c1,c2} => submit'")
    families, sets = [], {}
    for what, part, field in zip(("first stage", "second stage", "derived"),
                                 [*(stages or names[:2]), tail], fields):
        family, colon, braced = part.partition(":") if field else (part, "", "")
        family = family.strip()
        if not _NAME_RE.match(family):
            raise CliError(f"bad {what} family name {family!r}")
        families.append(family)
        if colon:  # the LABEL= goes only where a brace follows it
            braced = re.sub(r"^[^{=]*=(?=\{)", "", braced.strip())
            sets[field] = tuple(_braced_list(braced, f"{what} parameter set"))
    try:
        return flavor, dc_replace(build(system, *families), **sets)
    except ValidationError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# Output helpers


def _emit(args, human_lines, machine_pairs, json_obj) -> None:
    """Write the requested format in one call; the others may be None."""
    if args.format == "human":
        lines = human_lines
    elif args.format == "machine":
        lines = [f"{key}={value}" for key, value in machine_pairs]
    else:
        lines = [json.dumps(json_obj, indent=2, sort_keys=True)]
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _property_output(args, report: PropertyReport, label: str) -> int:
    verdict = "holds" if report.holds else "fails"
    human = [f"{label}: {'HOLDS' if report.holds else 'FAILS'}"]
    pairs = [("verdict", verdict)]
    obj = {"verdict": verdict}
    if report.counterexample is not None:
        run_id, conjunct = report.counterexample
        human.append(f"  counterexample run: {run_id}")
        human.append(f"  failing conjunct: {conjunct}")
        pairs.append(("counterexample_run", run_id))
        pairs.append(("failing_conjunct", conjunct))
        obj["counterexample_run"] = run_id
        obj["failing_conjunct"] = conjunct
    _emit(args, human, pairs, obj)
    return 0 if report.holds else 1


def _claim_report_obj(report: ClaimReport) -> dict:
    obj = {
        "claim": report.claim_id,
        "system": report.system_name,
        "verdict": report.verdict.value,
        "hypotheses_hold": report.hypotheses_hold,
        "hypotheses": [{"name": h.name, "holds": h.holds, "detail": h.detail}
                       for h in report.hypotheses],
        "conclusion": {"name": report.conclusion.name,
                       "holds": report.conclusion.holds,
                       "detail": report.conclusion.detail},
        "dropped": list(report.dropped),
    }
    if report.items:
        obj["items"] = [{"index": i, "description": d, "holds": h, "detail": detail}
                        for i, d, h, detail in report.items]
    return obj


def _claim_human(report: ClaimReport) -> list[str]:
    head = f"{report.claim_id} on {report.system_name}: {report.verdict.value}"
    if report.items:
        held = sum(1 for _, _, holds, _ in report.items if holds)
        head += f" ({held}/{len(report.items)} items)"
    lines = [head]
    if report.dropped:
        lines.append(f"  dropped hypotheses: {', '.join(report.dropped)}")
    for h in report.hypotheses:
        state = "holds" if h.holds else f"fails ({h.detail})"
        lines.append(f"  hypothesis {h.name}: {state}")
    c = report.conclusion
    state = "holds" if c.holds else (f"fails ({c.detail})" if c.detail else "fails")
    lines.append(f"  conclusion {c.name}: {state}")
    for index, description, holds, detail in report.items:
        state = "yes" if holds else "no"
        suffix = f" [{detail}]" if detail else ""
        lines.append(f"  item {index}: {description}: {state}{suffix}")
    return lines


def _claim_pairs(report: ClaimReport) -> list[tuple[str, str]]:
    pairs = [("claim", report.claim_id), ("system", report.system_name),
             ("verdict", report.verdict.value)]
    for h in report.hypotheses:
        pairs.append((f"hypothesis.{h.name}", "holds" if h.holds else "fails"))
    pairs.append((f"conclusion.{report.conclusion.name}",
                  "holds" if report.conclusion.holds else "fails"))
    for index, _, holds, _ in report.items:
        pairs.append((f"item.{index}", "yes" if holds else "no"))
    return pairs


def _write(path: str, write) -> None:
    try:
        write()
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Commands


def _dot_graph(system: InterpretedSystem, values: dict[str, bool]) -> str:
    lines = [f'graph "{system.name}" {{', "  node [shape=box];"]
    for observer, part in system.observers.items():
        for bi, block in enumerate(part.blocks):
            lines.append(f'  subgraph "cluster_{observer}_{bi}" {{')
            lines.append(f'    label="{observer} block {bi + 1}";')
            for run_id in sorted(block, key=system.position):
                color = "darkgreen" if values[run_id] else "red"
                lines.append(f'    "{observer}:{run_id}" '
                             f'[label="{run_id}", color={color}];')
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    system = _resolve_system(args.system)
    formula = parse_formula(args.formula)
    ev = Evaluator(system)
    check_names(system, formula)
    if args.run is not None:
        system.position(args.run)  # an unknown run is rejected before any output
    # --run alone reads only the run it names
    wanted = system.run_ids if args.run is None or args.dot is not None else ()
    values = [(rid, ev.evaluate(formula, rid)) for rid in wanted]
    failing = next((rid for rid, v in values if not v), None)
    if args.dot is not None:
        # "-" replaces the report with the graph; the exit code still
        # reflects validity either way
        dot = _dot_graph(system, dict(values))
        if args.dot == "-":
            print(dot, end="")
            return 0 if failing is None else 1
        _write(args.dot, lambda: Path(args.dot).write_text(dot))
    if args.run is not None:
        value = ev.evaluate(formula, args.run)
        _emit(args,
              [f"{render(formula)} is {'true' if value else 'false'} at {args.run}"],
              [("value", "true" if value else "false")],
              {"value": value, "run": args.run})
        return 0 if value else 1
    verdict = "holds" if failing is None else "fails"
    human = pairs = obj = None
    if args.format == "human":
        width = max(map(len, system.run_ids))
        human = [render(formula)]
        human += [f"  {rid:<{width}}  {'true' if v else 'false'}" for rid, v in values]
        human.append("valid over all runs" if failing is None
                     else f"not valid (first false at {failing})")
    elif args.format == "machine":
        pairs = [("verdict", verdict)]
        pairs += [(f"run.{rid}", "true" if v else "false") for rid, v in values]
        if failing is not None:
            pairs.append(("counterexample_run", failing))
    else:
        obj = {"formula": render(formula), "verdict": verdict,
               "runs": [{"run": rid, "value": v} for rid, v in values]}
        if failing is not None:
            obj["counterexample_run"] = failing
    _emit(args, human, pairs, obj)
    return 0 if failing is None else 1


def cmd_check(args) -> int:
    system = _resolve_system(args.system)
    spec = parse_property_text(args.property)
    return _property_output(args, check_property(system, spec), args.property.strip())


def cmd_indep(args) -> int:
    system = _resolve_system(args.system)
    kind = IndependenceKind(args.kind)
    _, schema = parse_schema_text(args.schema, system)
    observer = args.observer or next(iter(system.observers))
    report = check_independence(system, observer, schema, kind, args.bound)
    return _property_output(args, report, f"independence[{args.kind}]")


def cmd_compose(args) -> int:
    system = _resolve_system(args.system)
    _, schema = parse_schema_text(args.schema, system)
    derived = derive_sequential(system, schema)  # either flavor's schema
    if args.out:
        _write(args.out, lambda: save_system(derived, args.out))
        print(f"wrote {derived.name} ({len(derived.run_ids)} runs) to {args.out}")
    elif args.format == "json":
        print(json.dumps(to_json_dict(derived), indent=2, sort_keys=True))
    else:
        print(render_system(derived), end="")
    return 0


def _admits(system: InterpretedSystem, flavor: str) -> bool:
    try:
        _FLAVORS[flavor].infer_schema(system)
    except ValidationError:
        return False
    return True


def cmd_claims(args) -> int:
    if args.claims_command == "list":
        human = [f"{cid:<8} {cdef.flavor:<10} {cdef.summary}"
                 for cid, cdef in CLAIMS.items()]
        pairs = [("claim", cid) for cid in CLAIMS]
        obj = [{"claim": cid, "flavor": cdef.flavor, "summary": cdef.summary,
                "hypotheses": list(cdef.hypotheses), "conclusion": cdef.conclusion}
               for cid, cdef in CLAIMS.items()]
        _emit(args, human, pairs, obj)
        return 0
    if args.claim == "all":
        claim_ids = list(CLAIMS)
    else:
        claim_ids = [args.claim]
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise CliError(f"unknown claim {cid!r}")
    given = None if args.system is None else _resolve_system(args.system)
    drop = tuple(args.drop or ())
    if args.claim == "all":
        # the claims of each flavor whose schema the system admits and that
        # have every dropped hypothesis; if none, the first claim reports why
        admitted = {flavor: given is None or _admits(given, flavor)
                    for flavor in _FLAVORS}
        claim_ids = [cid for cid in claim_ids if admitted[CLAIMS[cid].flavor]
                     and set(drop) <= set(CLAIMS[cid].hypotheses)] or claim_ids
    reports = []
    for cid in claim_ids:
        system = fixture_system(DEFAULT_SYSTEMS[cid]) if given is None else given
        reports.append(check_claim(cid, system, drop=drop))
    human: list[str] = []
    pairs: list[tuple[str, str]] = []
    for report in reports:
        human.extend(_claim_human(report))
        pairs.extend(_claim_pairs(report))
    _emit(args, human, pairs, {"claims": [_claim_report_obj(r) for r in reports]})
    return 1 if any(r.verdict is ClaimVerdict.REFUTED for r in reports) else 0


def cmd_search(args) -> int:
    if args.claim not in CLAIMS:
        raise CliError(f"unknown claim {args.claim!r}")
    cfg = GenConfig(n_real=args.agents, n_pseudo=args.pseudonyms,
                    n_articles=args.articles, max_runs=args.max_runs,
                    partition=args.partition, seed=args.seed, budget=args.budget)
    result = falsify(args.claim, cfg, drop=tuple(args.drop_hypothesis or ()))
    found = result.found is not None
    human = []
    pairs = [("found", "yes" if found else "no"),
             ("examined", str(result.examined)),
             ("hypotheses_held", str(result.hypotheses_held))]
    obj = {"found": found, "examined": result.examined,
           "hypotheses_held": result.hypotheses_held, "phase": result.phase}
    if found:
        human.append(f"counterexample for {args.claim} after {result.examined} "
                     f"systems ({result.phase} phase)")
        human.extend(_claim_human(result.report))
        human.append("")
        human.append(render_system(result.found).rstrip("\n"))
        pairs.append(("phase", result.phase))
        pairs.append(("system", result.found.name))
        obj["system"] = to_json_dict(result.found)
        obj["report"] = _claim_report_obj(result.report)
    else:
        human.append(f"no counterexample for {args.claim} in {result.examined} "
                     f"systems (hypotheses held on {result.hypotheses_held})")
    _emit(args, human, pairs, obj)
    return 1 if found else 0


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anoncheck",
        description="Check anonymity and privacy properties of finite "
                    "interpreted systems, including composed actions.")
    parser.add_argument("--version", action="version", version=f"anoncheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("human", "machine", "json"),
                       default="human", help="output format")

    p = sub.add_parser("eval", help="evaluate a formula on a system")
    p.add_argument("system", help="system file or bundled fixture name")
    p.add_argument("formula", help="formula text")
    p.add_argument("--run", help="evaluate at one run instead of all runs")
    p.add_argument("--dot", help="write the partition graph as DOT "
                                 "('-' for stdout, suppresses the verdict)")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="check a named property")
    p.add_argument("system", help="system file or bundled fixture name")
    p.add_argument("property",
                   help="e.g. 'anon-upto(i1, use(k1), {i1,i2}, j)'")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("indep", help="check a stage-independence condition")
    p.add_argument("system", help="system file or bundled fixture name")
    p.add_argument("schema",
                   help="e.g. 'seq use:I_P={k1,k2} post:C={c1,c2} => submit'")
    p.add_argument("kind", choices=sorted(kind.value for kind in IndependenceKind))
    p.add_argument("--observer")
    p.add_argument("--bound", type=int, default=2,
                   help="disjunction size bound for kind=disjunctive")
    add_common(p)
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("compose", help="derive the composed system")
    p.add_argument("system", help="system file or bundled fixture name")
    p.add_argument("schema", help="e.g. 'seq => submit' or 'par a + b => joint'")
    p.add_argument("-o", "--out", help="write to file instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("claims", help="list or run registered claims")
    claims_sub = p.add_subparsers(dest="claims_command", required=True)
    lp = claims_sub.add_parser("list", help="list registered claims")
    add_common(lp)
    lp.set_defaults(func=cmd_claims)
    rp = claims_sub.add_parser("run", help="check claims on demo or given systems")
    rp.add_argument("claim", help="claim id or 'all'")
    rp.add_argument("--system", help="system file or fixture (default: per-claim demo)")
    rp.add_argument("--drop", action="append", help="drop a hypothesis by name")
    add_common(rp)
    rp.set_defaults(func=cmd_claims)

    p = sub.add_parser("search",
                       help="search for a counterexample to a claim, "
                            "optionally with hypotheses dropped")
    p.add_argument("claim", help="claim id")
    p.add_argument("--drop-hypothesis", action="append",
                   help="hypothesis name to drop (repeatable)")
    p.add_argument("--budget", type=int, default=10_000,
                   help="random systems to sample after the exhaustive phase")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-runs", type=int, default=4)
    p.add_argument("--agents", type=int, default=2, help="first-stage agents")
    p.add_argument("--pseudonyms", type=int, default=2)
    p.add_argument("--articles", type=int, default=2)
    p.add_argument("--partition", choices=("single", "random"), default="single")
    add_common(p)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (``| head``): drop the rest of the output
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (CliError, SysFileError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
