"""tmkit: model machines as flows of things, carve events, and run them.

The pipeline: write a model in the small text language, then `load` it: it
parses the text (`parse`), checks its structure (`check_model`), and carves
regions into timed events connected by a behavior graph (`eventize`),
reporting every fault as a spanned diagnostic. Execute the graph tick by tick
(`run`) and export models and traces (`model_to_json`, `export_dot`,
`trace_to_json`). Bundled example models live under `corpus_names()`.
"""
from importlib import resources

from tmkit.diagnostics import (
    CATALOGUE,
    Diagnostic,
    RULES,
    Severity,
    SourceSpan,
    has_errors,
)
from tmkit.dsl import (
    BehaviorDecl,
    EventDecl,
    ModelDocument,
    ParseResult,
    RegionDecl,
    document_from_parts,
    parse,
)
from tmkit.events import (
    BehaviorEdge,
    BehaviorEdgeKind,
    BehaviorGraph,
    CoverageReport,
    Event,
    build_behavior,
    build_from_document,
    coverage,
    define_event,
    eventize,
    overlap,
)
from tmkit.export import (
    MODEL_SCHEMA,
    TRACE_SCHEMA,
    ExportError,
    export_dot,
    import_json,
    model_digest,
    model_to_json,
    trace_to_json,
    write_text_atomic,
)
from tmkit.formatter import format_document
from tmkit.model import (
    ActionKind,
    DuplicateEntityError,
    FrozenModelError,
    InvalidNameError,
    ModelError,
    Region,
    StaticModel,
    UnknownEntityError,
)
from tmkit.sim import (
    EventInstance,
    FirstDeclared,
    RaceReport,
    ScriptedExhaustedError,
    Scripted,
    SeededRandom,
    SimState,
    SimTrace,
    SimulationError,
    TickSnapshot,
    behavior_digest,
    init,
    race_report,
    run,
    step,
)
from tmkit.validate import check_model, check_region

__version__ = "0.1.0"


def __getattr__(name: str):
    # `load` lives beside its views in tmkit.cli; importing that module lazily
    # keeps `python -m tmkit.cli` from finding it already imported.
    if name in ("Loaded", "load"):
        from tmkit import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def corpus_names() -> tuple[str, ...]:
    """Names of the bundled example models, without the .tm suffix."""
    root = resources.files(__name__) / "corpus"
    return tuple(
        sorted(entry.name[:-3] for entry in root.iterdir() if entry.name.endswith(".tm"))
    )


def corpus_text(name: str) -> str:
    """Source text of a bundled example model."""
    entry = resources.files(__name__) / "corpus" / f"{name}.tm"
    if not entry.is_file():
        raise KeyError(f"no bundled model named {name!r}; have {corpus_names()}")
    return entry.read_text(encoding="utf-8")


__all__ = [
    "ActionKind",
    "BehaviorDecl",
    "BehaviorEdge",
    "BehaviorEdgeKind",
    "BehaviorGraph",
    "CATALOGUE",
    "CoverageReport",
    "Diagnostic",
    "DuplicateEntityError",
    "Event",
    "EventDecl",
    "EventInstance",
    "ExportError",
    "FirstDeclared",
    "FrozenModelError",
    "InvalidNameError",
    "MODEL_SCHEMA",
    "ModelDocument",
    "ModelError",
    "Loaded",
    "ParseResult",
    "RaceReport",
    "Region",
    "RegionDecl",
    "RULES",
    "ScriptedExhaustedError",
    "Scripted",
    "SeededRandom",
    "Severity",
    "SimState",
    "SimTrace",
    "SimulationError",
    "SourceSpan",
    "StaticModel",
    "TickSnapshot",
    "TRACE_SCHEMA",
    "UnknownEntityError",
    "behavior_digest",
    "build_behavior",
    "build_from_document",
    "check_model",
    "check_region",
    "corpus_names",
    "corpus_text",
    "coverage",
    "define_event",
    "document_from_parts",
    "eventize",
    "export_dot",
    "format_document",
    "has_errors",
    "import_json",
    "init",
    "load",
    "model_digest",
    "model_to_json",
    "overlap",
    "parse",
    "race_report",
    "run",
    "step",
    "trace_to_json",
    "write_text_atomic",
    "__version__",
]
