"""Epistemic model checking of anonymity and privacy in finite systems.

The package models runs of a protocol as an interpreted system: each run
carries action facts, and each observer carries a partition of the runs
expressing what they cannot distinguish.  On top of that it provides a
small modal language, a taxonomy of anonymity/privacy properties, two ways
of deriving composed actions (sequential chaining and parallel pairing),
independence and structural side conditions, and an executable registry of
compositionality claims with falsification search.
"""
from .composition import (IndependenceKind, ParallelSchema, SequentialSchema,
                          StructuralCondition, StructuralKind,
                          check_independence, check_structural,
                          derive_parallel, derive_sequential,
                          independence_obligations, parallel_subjects,
                          standard_parallel_schema, standard_sequential_schema,
                          structural_formula)
from .formula import (TRUE, FALSE, And, Atom, Const, Evaluator, Formula, Iff,
                      Implies, Knows, Not, Or, ParseError, Poss, SlotPlanes,
                      Verdict, check_names, conj, disj, evaluate, parse,
                      render, valid)
from .properties import (PropertyKind, PropertyReport, PropertySpec,
                         anonymous_up_to, check_property, compile_property,
                         maximally_identified, maximally_onymous,
                         minimally_anonymous, minimally_private,
                         private_up_to, role_interchangeable)
from .registry import (CLAIMS, DEFAULT_SYSTEMS, FIXTURE_NAMES, HYPOTHESIS_IMPLICATIONS,
                       PAPER_SYSTEM_NAMES, CheckSuite, ClaimDef, ClaimReport, ClaimVerdict,
                       check_claim, fixture_system, paper_system)
from .scenarios import (FalsifyResult, GenConfig, SweepReport, exhaustive_systems, falsify,
                        mixer_chain, random_system, sweep)
from .sysfile import (SysFileError, from_json_dict, load_system, parse_system,
                      render_system, save_system, to_json_dict)
from .system import (Action, InterpretedSystem, ObserverPartition, Run,
                     ValidationError, build_system)

__version__ = "0.1.0"

__all__ = [
    "Action", "And", "Atom", "CLAIMS", "CheckSuite", "ClaimDef",
    "ClaimReport", "ClaimVerdict", "Const", "DEFAULT_SYSTEMS", "Evaluator",
    "FALSE", "FIXTURE_NAMES", "FalsifyResult", "Formula", "GenConfig",
    "HYPOTHESIS_IMPLICATIONS", "Iff", "Implies", "IndependenceKind",
    "InterpretedSystem", "Knows", "Not", "ObserverPartition", "Or",
    "PAPER_SYSTEM_NAMES", "ParallelSchema", "ParseError", "Poss",
    "PropertyKind", "PropertyReport", "PropertySpec", "Run",
    "SequentialSchema", "SlotPlanes", "StructuralCondition", "StructuralKind",
    "SweepReport", "SysFileError", "TRUE", "ValidationError", "Verdict",
    "anonymous_up_to", "build_system", "check_claim", "check_independence",
    "check_names", "check_property", "check_structural", "compile_property",
    "conj",
    "derive_parallel", "derive_sequential", "disj", "evaluate",
    "exhaustive_systems", "falsify", "fixture_system", "from_json_dict",
    "independence_obligations", "load_system",
    "maximally_identified", "maximally_onymous", "minimally_anonymous",
    "minimally_private", "mixer_chain", "paper_system", "parallel_subjects",
    "parse", "parse_system", "private_up_to", "random_system", "render",
    "render_system", "role_interchangeable", "save_system",
    "standard_parallel_schema", "standard_sequential_schema",
    "structural_formula", "sweep", "to_json_dict", "valid",
]
