"""Textual frontend: lexer, recovering parser, and document linking.

Parsing is total: any byte sequence yields a ParseResult, never an exception.
Errors are collected as spanned diagnostics (codes P1..P5) with panic-mode
recovery at statement boundaries, so one file can report many findings.

Concrete syntax (statements end with ';', '#' starts a line comment):

  machine <name> { stage <kind>; machine <name> { ... } }
  flow [<thing>]: <path> -> <path>;
  trigger: <path> -> <path>;
  storage <thing> in <machine path>;
  region <name> = { [<path>, <path>, ...] };
  event <name> on <region> [duration <n>] [label <string>];
  behavior {
    <event> -> <event>;
    [<event> ->] choice { <event> | <event> [| ...] };
    [<event> ->] concurrent { <event>, <event> [, ...] };
    repeat <event> [-> <event>] [bound <n>];
  }

Names are identifiers (letters, digits, '_', interior '-') or quoted strings.
Paths are dot-separated names; the final segment may be a stage kind, a child
machine (regions only; expands to all stages underneath), or a storage thing.
A region member naming the reserved root machine covers every stage.
Durations and bounds are at most 2**63 - 1; a larger number is a P5 finding.

A token is only its word (its source text) and its start offset, kept in two
parallel lists that one scan of a compiled regex fills, with the blanks,
newlines and comments before each token folded into its match. Only strings
with escapes or without a closing quote, and characters no token starts with,
take a per-character path. The first character of a word tells its kind, and
the parser compares words directly: identifiers, numbers, quoted strings and
punctuation never share a text. Lines and columns are not tracked: each parse
keeps one sorted list of newline offsets, and a SourceSpan finds its line and
column there by bisection when it is built.

Identifiers joined by dots with no blank between them ("a.b-c.d") are one
path word, which a path takes with one split. Where the parser reads a single
name, keyword or number instead, it splits such a word in place into its names
and '.' tokens, so every finding keeps the span it would have had with blanks
around the dots. The grammar allows no '.' there, so a path word is split only
on the way to a P2.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from tmkit.diagnostics import Diagnostic, SourceSpan, has_errors
from tmkit.model import (
    ActionKind,
    DuplicateEntityError,
    InvalidNameError,
    KIND_NAMES,
    ModelError,
    StaticModel,
    UnknownEntityError,
    has_control_character,
    validate_name,
)

MAX_DIAGNOSTICS = 100
MAX_NESTING = 64
MAX_NUMBER = 2**63 - 1  # largest duration or bound

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
IDENT_RE = re.compile(_IDENT + r"\Z")

# Names that would be misread at the head of a behavior statement; the
# formatter quotes them there (and anywhere, for simplicity).
AMBIGUOUS_NAMES = frozenset({"choice", "concurrent", "repeat"})


# -- declarations ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RegionDecl:
    name: str
    stage_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class EventDecl:
    """An event declaration. ValueError unless the duration is an int from 1 to
    MAX_NUMBER and the label None or a string without control characters."""

    name: str
    region: str
    duration: int = 1
    label: str | None = None
    span: SourceSpan | None = None

    def __post_init__(self) -> None:
        _check_number(f"event {self.name!r} duration", self.duration)
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"event {self.name!r} label must be a string, got {self.label!r}")
        if self.label is not None and has_control_character(self.label):
            raise ValueError(f"event {self.name!r} label contains a control character")


@dataclass(frozen=True, slots=True)
class BehaviorDecl:
    """One behavior statement. ValueError unless a "seq" or "repeat" has a source
    and one target, a "choice" or "concurrent" group two or more, and only a repeat a bound."""

    kind: str
    source: str | None
    targets: tuple[str, ...]
    bound: int | None = None
    span: SourceSpan | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("seq", "choice", "concurrent", "repeat"):
            raise ValueError(f"unknown behavior statement kind {self.kind!r}")
        if self.kind in ("seq", "repeat") and (self.source is None or len(self.targets) != 1):
            raise ValueError(f"a {self.kind} statement must have a source and exactly one target")
        if self.kind in ("choice", "concurrent") and len(self.targets) < 2:
            raise ValueError(f"a {self.kind} group needs at least two events")
        if self.bound is not None:
            if self.kind != "repeat":
                raise ValueError(f"only a repeat may have a bound, not a {self.kind}")
            _check_number("repeat bound", self.bound)


def _check_number(what: str, value: object) -> None:
    """A duration or a bound is an int (not a bool) from 1 to MAX_NUMBER."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= MAX_NUMBER:
        raise ValueError(f"{what} must be >= 1" if value < 1 else f"{what} must be <= {MAX_NUMBER}")


@dataclass(slots=True)
class ModelDocument:
    """UnknownEntityError on a region stage, an event region or a behavior event
    that does not exist; then ValueError unless each region and event is keyed by
    its own name, a valid one."""

    model: StaticModel
    regions: dict[str, RegionDecl]
    events: dict[str, EventDecl]
    behavior: tuple[BehaviorDecl, ...]
    spans: dict[str, SourceSpan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        stages = self.model.stages
        for name, region in self.regions.items():
            for stage_id in region.stage_ids:
                if stage_id not in stages:
                    raise UnknownEntityError(f"region {name!r} references unknown stage {stage_id!r}")
        for event in self.events.values():
            if event.region not in self.regions:
                raise UnknownEntityError(f"event {event.name!r} references unknown region {event.region!r}")
        for decl in self.behavior:
            for name in decl.targets if decl.source is None else (decl.source, *decl.targets):
                if name not in self.events:
                    raise UnknownEntityError(f"behavior references unknown event {name!r}")
        for what, decls in (("region", self.regions), ("event", self.events)):
            for name, decl in decls.items():
                if decl.name != name:
                    raise ValueError(f"{what} {decl.name!r} is keyed by another name, {name!r}")
                try:
                    validate_name(name)
                except InvalidNameError as exc:
                    raise ValueError(f"{what} name must be a valid name: {exc}") from None


@dataclass(slots=True)
class ParseResult:
    document: ModelDocument | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.document is not None


def document_from_parts(
    model: StaticModel,
    regions: dict[str, tuple[str, ...]] | None = None,
    events: dict[str, EventDecl] | None = None,
    behavior: tuple[BehaviorDecl, ...] = (),
) -> ModelDocument:
    """Assemble a document programmatically; UnknownEntityError on a dangling
    reference. The model, the declarations and the document refuse any other
    fault where they are made (ValueError), so the document has a text form."""
    region_decls = {
        name: RegionDecl(name, tuple(sorted(set(stage_ids)))) for name, stage_ids in (regions or {}).items()
    }
    document = ModelDocument(model, region_decls, dict(events or {}), tuple(behavior))
    if not model.frozen:
        model.freeze()
    return document


# -- lexer ------------------------------------------------------------------

# One match per token, blanks, newlines and comments before it included. The
# group is the token's word: its source text, whose first character tells its
# kind. Identifiers joined by dots with no blank between them are one path word
# ("a.b-c.d"). Strings with escapes or without a closing quote, and stray
# characters, leave the group empty and go to _lex_irregular.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\f\v\n]+|#[^\n]*)*"
    r"(" + _IDENT + r"(?:\." + _IDENT + r')*|[0-9]+|"[^"\\\n]*"|->|[{};:,|=.])?'
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_START = _IDENT_START | {'"'}


class _Text:
    """A source with its sorted newline offsets: every span's line and column
    comes from its start offset here."""

    __slots__ = ("text", "source", "newlines")

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.newlines = [found.start() for found in re.finditer("\n", text)]

    def span(self, start: int, end: int) -> SourceSpan:
        line = bisect_left(self.newlines, start)  # newlines before `start`
        column = start - self.newlines[line - 1] if line else start + 1
        return SourceSpan(self.source, start, end, line + 1, column)


def _lex(src: _Text) -> tuple[list[str], list[int], list[Diagnostic]]:
    """The tokens as parallel lists of words and start offsets, the last word
    "" for the end of input, and the P1 findings."""
    text = src.text
    words: list[str] = []
    starts: list[int] = []
    diags: list[Diagnostic] = []
    add_word = words.append
    add_start = starts.append
    pos = 0
    while True:
        for found in _TOKEN_RE.finditer(text, pos):
            word = found[1]
            if word is None:
                break
            add_word(word)
            add_start(found.start(1))
        pos = found.end()
        if pos == len(text):
            break
        pos = _lex_irregular(src, pos, words, starts, diags)
    add_word("")
    add_start(len(text))
    return words, starts, diags


def _lex_irregular(
    src: _Text, start: int, words: list[str], starts: list[int], diags: list[Diagnostic]
) -> int:
    """Lex the string or stray character at `start` one character at a time.
    Returns the offset after it."""
    text = src.text
    n = len(text)

    def err(message: str, begin: int, end: int) -> None:
        if len(diags) < MAX_DIAGNOSTICS:
            diags.append(Diagnostic("P1", message, src.span(begin, end)))

    if text[start] != '"':
        err(f"unexpected character {text[start]!r}", start, start + 1)
        return start + 1
    i = start + 1
    while i < n:
        c = text[i]
        if c == '"':
            words.append(text[start : i + 1])
            starts.append(start)
            return i + 1
        if c == "\n":
            break
        if c == "\\":
            if i + 1 == n or text[i + 1] not in ('"', "\\"):
                err("unknown escape in string", i, min(i + 2, n))
            i = min(i + 2, n)
            continue
        i += 1
    err("unterminated string", start, i)
    return i


def _string_value(word: str) -> str:
    """A string token's value: the text between its quotes, with escaped quotes
    and backslashes undone and unknown escapes (a P1 finding) dropped."""
    inner = word[1:-1]
    if "\\" not in inner:
        return inner
    return _ESCAPE_RE.sub(lambda found: found[1] if found[1] in '"\\' else "", inner)


def _number(word: str) -> int | None:
    """An int token's value, or None above MAX_NUMBER. The length is checked
    first because int() refuses strings of more than 4 300 digits."""
    digits = word.lstrip("0") or "0"
    if len(digits) > 19:  # MAX_NUMBER has 19
        return None
    value = int(digits)
    return value if value <= MAX_NUMBER else None


# -- parser -----------------------------------------------------------------


class _Bail(Exception):
    pass


class _Parser:
    """Recursive descent over token indices; a token is compared by its word."""

    def __init__(self, src: _Text, words: list[str], starts: list[int]):
        self.src = src
        self.words = words
        self.starts = starts
        self.last = len(words) - 1  # the end-of-input token
        self.pos = 0
        self.diags: list[Diagnostic] = []
        # Each statement as the arguments of the _Linker method that links it:
        self.machines: list[tuple] = []  # (name, name span, [(stage kind, span)], [machine])
        self.flows: list[tuple] = []  # (thing or None, source path, target path, span)
        self.triggers: list[tuple] = []  # (source path, target path, span)
        self.storages: list[tuple] = []  # (thing, owner path, span)
        self.regions: list[tuple] = []  # (name, name span, [(member path, span), ...])
        self.events: list[EventDecl] = []
        self.behavior: list[BehaviorDecl] = []

    # -- plumbing --

    def peek(self) -> str:
        """The current token's word, read as one name, keyword or number: a
        path word there is split first (see split_word)."""
        word = self.words[self.pos]
        if "." in word and word[0] in _IDENT_START:
            return self.split_word()
        return word

    def split_word(self) -> str:
        """Split the path word at the current token, in place, into its names
        and '.' tokens at their own offsets; returns the first name. No '.'
        may follow a single name, keyword or number, so a P2 follows every
        split: MAX_DIAGNOSTICS bounds them, and a valid file needs none."""
        at = self.pos
        offset = self.starts[at]
        words: list[str] = []
        starts: list[int] = []
        for name in self.words[at].split("."):
            words += (name, ".")
            starts += (offset, offset + len(name))
            offset += len(name) + 1
        self.words[at : at + 1] = words[:-1]
        self.starts[at : at + 1] = starts[:-1]
        self.last += len(words) - 2
        return words[0]

    def advance(self) -> int:
        """Step past the current token, never past the end; returns its index."""
        at = self.pos
        if at < self.last:
            self.pos = at + 1
        return at

    def at(self, word: str) -> bool:
        found = self.words[self.pos]
        return found == word or ("." in found and self.peek() == word)

    def span(self, first: int, last: int | None = None) -> SourceSpan:
        """From the start of token `first` to the end of token `last` (or `first`)."""
        if last is None:
            last = first
        return self.src.span(self.starts[first], self.starts[last] + len(self.words[last]))

    def error(self, message: str, at: int | None = None, code: str = "P2") -> None:
        self.note(code, message, self.span(self.pos if at is None else at))
        raise _Bail()

    def note(self, code: str, message: str, span: SourceSpan | None) -> None:
        if len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(Diagnostic(code, message, span))

    def expect(self, word: str, what: str) -> int:
        if self.words[self.pos] != word and self.peek() != word:
            self.error(f"expected {word!r} {what}")
        return self.advance()

    def parse_name(self, what: str) -> tuple[str, int]:
        at = self.pos
        word = self.peek()
        if word[:1] not in _NAME_START:
            self.error(f"expected a name {what}")
        self.advance()
        return (_string_value(word) if word[0] == '"' else word), at

    def parse_int(self, what: str) -> tuple[int, int]:
        at = self.pos
        word = self.peek()
        if not word[:1].isdigit():
            self.error(f"expected a number {what}")
        self.advance()
        value = _number(word)
        if value is None:
            self.error("number out of range", at, code="P5")
        return value, at  # type: ignore[return-value]

    def parse_path(self, what: str) -> list[str]:
        """Dot-separated names: a path word gives all of its names at once."""
        segments: list[str] = []
        while True:
            word = self.words[self.pos]
            if word[:1] in _IDENT_START:
                self.pos += 1  # never the end-of-input token, whose word is ""
                segments += word.split(".")
            else:
                segments.append(self.parse_name(what)[0])
            if self.words[self.pos] != ".":
                return segments
            self.pos += 1
            what = "after '.'"

    def parse_member(self) -> tuple[list[str], SourceSpan]:
        """A region member path, with its span for the linker's findings."""
        first = self.pos
        segments = self.parse_path("for a region member")
        return segments, self.span(first, self.pos - 1)

    def sync(self) -> None:
        """Skip to just past the next ';' at brace depth 0, or stop before '}'/eof."""
        depth = 0
        while self.pos < self.last:
            word = self.words[self.pos]
            if word == "{":
                depth += 1
            elif word == "}":
                if depth == 0:
                    return
                depth -= 1
            elif word == ";" and depth == 0:
                self.pos += 1
                return
            self.pos += 1

    def statements(self, parse_one: Callable[[], None], close: str | None) -> None:
        """Call parse_one for each statement up to `close` (None: the end of
        input). A statement that fails is skipped up to the next boundary, and
        parsing stops early once MAX_DIAGNOSTICS findings are in."""
        while self.pos < self.last and (close is None or not self.at(close)):
            if len(self.diags) >= MAX_DIAGNOSTICS:
                return
            before = self.pos
            try:
                parse_one()
            except _Bail:
                self.sync()
            if self.pos == before:
                self.advance()  # guarantee progress on any input

    def skip_block(self) -> None:
        """Consume a balanced '{ ... }' without interpreting it."""
        if not self.at("{"):
            return
        depth = 0
        while self.pos < self.last:
            word = self.words[self.advance()]
            if word == "{":
                depth += 1
            elif word == "}":
                depth -= 1
                if depth == 0:
                    return

    # -- grammar --

    def parse_document(self) -> None:
        self.statements(self.parse_item, None)

    def parse_item(self) -> None:
        word = self.peek()
        if word[:1] not in _IDENT_START:
            self.error("expected a declaration")
        if word == "machine":
            machine = self.parse_machine(1)
            if machine is not None:
                self.machines.append(machine)
        elif word == "flow":
            self.parse_flow()
        elif word == "trigger":
            self.parse_trigger()
        elif word == "storage":
            self.parse_storage()
        elif word == "region":
            self.parse_region()
        elif word == "event":
            self.parse_event()
        elif word == "behavior":
            self.parse_behavior()
        else:
            self.error(f"unknown declaration {word!r}")

    def parse_machine(self, depth: int) -> tuple | None:
        self.expect("machine", "to start a machine")
        name, name_at = self.parse_name("for the machine")
        if depth > MAX_NESTING:
            self.note("P2", "machine nesting too deep", self.span(name_at))
            self.skip_block()
            return None
        stages: list[tuple[ActionKind, SourceSpan]] = []
        children: list[tuple] = []
        self.expect("{", "to open the machine body")
        self.statements(lambda: self.parse_machine_statement(stages, children, depth), "}")
        self.expect("}", "to close the machine body")
        return name, self.span(name_at), stages, children

    def parse_machine_statement(self, stages: list, children: list, depth: int) -> None:
        if self.at("stage"):
            self.advance()
            kind_value, kind_at = self.parse_name("for the stage kind")
            if kind_value not in KIND_NAMES:
                self.error(f"unknown stage kind {kind_value!r}", kind_at)
            self.expect(";", "after the stage")
            stages.append((ActionKind(kind_value), self.span(kind_at)))
        elif self.at("machine"):
            child = self.parse_machine(depth + 1)
            if child is not None:
                children.append(child)
        else:
            self.error("expected 'stage' or 'machine' inside a machine")

    def parse_flow(self) -> None:
        start = self.expect("flow", "to start a flow")
        thing: str | None = None
        if not self.at(":"):
            thing, _ = self.parse_name("for the flow thing")
        self.expect(":", "after the flow head")
        src = self.parse_path("for the flow source")
        self.expect("->", "between flow endpoints")
        dst = self.parse_path("for the flow target")
        end = self.expect(";", "after the flow")
        self.flows.append((thing, src, dst, self.span(start, end)))

    def parse_trigger(self) -> None:
        start = self.expect("trigger", "to start a trigger")
        self.expect(":", "after 'trigger'")
        src = self.parse_path("for the trigger source")
        self.expect("->", "between trigger endpoints")
        dst = self.parse_path("for the trigger target")
        end = self.expect(";", "after the trigger")
        self.triggers.append((src, dst, self.span(start, end)))

    def parse_storage(self) -> None:
        start = self.expect("storage", "to start a storage")
        thing, _ = self.parse_name("for the stored thing")
        self.expect("in", "after the thing")
        path = self.parse_path("for the owning machine")
        end = self.expect(";", "after the storage")
        self.storages.append((thing, path, self.span(start, end)))

    def parse_region(self) -> None:
        self.expect("region", "to start a region")
        name, name_at = self.parse_name("for the region")
        self.expect("=", "after the region name")
        self.expect("{", "to open the member list")
        members: list[tuple[list[str], SourceSpan]] = []
        if self.words[self.pos] != "}":  # empty, as a region over a stageless machine is too
            members.append(self.parse_member())
            while self.at(","):
                self.advance()
                members.append(self.parse_member())
        self.expect("}", "to close the member list")
        self.expect(";", "after the region")
        self.regions.append((name, self.span(name_at), members))

    def parse_event(self) -> None:
        self.expect("event", "to start an event")
        name, name_at = self.parse_name("for the event")
        self.expect("on", "after the event name")
        region, _ = self.parse_name("for the region")
        duration = 1
        label: str | None = None
        seen: set[str] = set()
        while self.peek() in ("duration", "label"):
            word = self.words[self.advance()]
            if word in seen:
                self.error(f"duplicate {word!r} clause")
            seen.add(word)
            if word == "duration":
                duration, duration_at = self.parse_int("for the duration")
                if duration < 1:
                    self.error("duration must be >= 1", duration_at, code="P5")
            else:
                label_at = self.pos
                if self.peek()[:1] != '"':
                    self.error("expected a quoted label")
                self.advance()
                label = _string_value(self.words[label_at])
                if has_control_character(label):
                    self.error("label contains a control character", label_at, code="P5")
        self.expect(";", "after the event")
        # Every duration and label EventDecl refuses was refused above.
        self.events.append(EventDecl(name, region, duration, label, self.span(name_at)))

    def parse_behavior(self) -> None:
        self.expect("behavior", "to start a behavior block")
        self.expect("{", "to open the behavior block")
        self.statements(self.parse_behavior_statement, "}")
        self.expect("}", "to close the behavior block")

    def parse_group(self, separator: str, what: str) -> tuple[str, ...]:
        self.expect("{", f"to open the {what} group")
        names = [self.parse_name(f"in the {what} group")[0]]
        while self.at(separator):
            self.advance()
            names.append(self.parse_name(f"in the {what} group")[0])
        end = self.expect("}", f"to close the {what} group")
        if len(names) < 2:
            self.error(f"a {what} group needs at least two events", end)
        return tuple(names)

    def parse_behavior_statement(self) -> None:
        start = self.pos
        if self.at("repeat"):
            self.advance()
            source, _ = self.parse_name("for the repeated event")
            target = source
            if self.at("->"):
                self.advance()
                target, _ = self.parse_name("for the repeat target")
            bound: int | None = None
            if self.at("bound"):
                self.advance()
                bound, bound_at = self.parse_int("for the bound")
                if bound < 1:
                    self.error("bound must be >= 1", bound_at, code="P5")
            end = self.expect(";", "after the repeat")
            self.behavior.append(BehaviorDecl("repeat", source, (target,), bound, self.span(start, end)))
            return
        if self.peek() in ("choice", "concurrent"):
            self.parse_group_statement(None, start)
            return
        source, _ = self.parse_name("to start a behavior statement")
        self.expect("->", "after the source event")
        if self.peek() in ("choice", "concurrent"):
            self.parse_group_statement(source, start)
            return
        target, _ = self.parse_name("for the target event")
        end = self.expect(";", "after the edge")
        self.behavior.append(BehaviorDecl("seq", source, (target,), None, self.span(start, end)))

    def parse_group_statement(self, source: str | None, start: int) -> None:
        word = self.words[self.advance()]  # "choice" or "concurrent"
        targets = self.parse_group("|" if word == "choice" else ",", word)
        end = self.expect(";", f"after the {word} group")
        self.behavior.append(BehaviorDecl(word, source, targets, None, self.span(start, end)))


# -- linking ----------------------------------------------------------------


# The code of the finding for a refusal of the model's; any other is a P4.
_REFUSAL_CODES = {InvalidNameError: "P5", DuplicateEntityError: "P3"}


class _Linker:
    """Builds the model and the declarations from the parser's statements,
    each one the arguments of the link_* method that links it; refused()
    turns each refusal of the model's into one finding at its statement's span."""

    def __init__(self, parser: _Parser):
        self.p = parser
        self.model = StaticModel()
        self.spans: dict[str, SourceSpan] = {}
        self.diags: list[Diagnostic] = []
        self.regions: dict[str, RegionDecl] = {}
        self.events: dict[str, EventDecl] = {}
        self.behavior: list[BehaviorDecl] = []

    def note(self, code: str, message: str, span: SourceSpan | None) -> None:
        self.diags.append(Diagnostic(code, message, span))

    def refused(self, exc: ModelError, span: SourceSpan) -> None:
        self.note(_REFUSAL_CODES.get(type(exc), "P4"), str(exc), span)

    def new_name(self, what: str, name: str, declared: dict, span: SourceSpan) -> bool:
        """Whether a region or an event may take `name`: a P3 if it is taken, else validate_name's P5."""
        if name in declared:
            self.note("P3", f"{what} {name!r} is already declared", span)
            return False
        try:
            validate_name(name)
        except ModelError as exc:
            self.refused(exc, span)
            return False
        return True

    def link(self) -> ModelDocument:
        for args in self.p.machines:
            self.link_machine(*args, None)
        for args in self.p.storages:
            self.link_storage(*args)
        for args in self.p.flows:
            self.link_flow(*args)
        for args in self.p.triggers:
            self.link_trigger(*args)
        for args in self.p.regions:
            self.link_region(*args)
        for event in self.p.events:
            self.link_event(event)
        for decl in self.p.behavior:
            self.link_behavior(decl)
        self.model.freeze()
        return ModelDocument(self.model, self.regions, self.events, tuple(self.behavior), self.spans)

    def link_machine(
        self, name: str, span: SourceSpan, stages: list, children: list, parent: str | None
    ) -> None:
        try:
            machine_id = self.model.add_machine(name, parent)
        except ModelError as exc:
            self.refused(exc, span)
            return
        self.spans[machine_id] = span
        for kind, stage_span in stages:
            try:
                self.spans[self.model.add_stage(machine_id, kind)] = stage_span
            except ModelError as exc:
                self.refused(exc, stage_span)
        for child in children:
            self.link_machine(*child, machine_id)

    def resolve(self, segments: list[str], span: SourceSpan) -> tuple[str, str] | None:
        try:
            return self.model.resolve(segments)
        except ModelError as exc:
            self.refused(exc, span)
            return None

    def link_storage(self, thing: str, path: list[str], span: SourceSpan) -> None:
        resolved = self.resolve(path, span)
        if resolved is None:
            return
        kind, machine_id = resolved
        if kind != "machine":
            self.note("P4", f"storage owner must be a machine, not a {kind}", span)
            return
        try:
            self.spans[self.model.add_storage(machine_id, thing)] = span
        except ModelError as exc:  # the root machine holds no storages: a P4
            self.refused(exc, span)

    def endpoint(self, segments: list[str], span: SourceSpan, stages_only: bool) -> str | None:
        resolved = self.resolve(segments, span)
        if resolved is None:
            return None
        kind, node_id = resolved
        if kind == "machine" or (stages_only and kind != "stage"):
            wanted = "a stage" if stages_only else "a stage or storage"
            self.note("P4", f"{'.'.join(segments)!r} names a {kind}; expected {wanted}", span)
            return None
        return node_id

    def link_flow(self, thing: str | None, src_path: list, dst_path: list, span: SourceSpan) -> None:
        if thing is not None:
            try:
                validate_name(thing)
            except ModelError as exc:
                self.refused(exc, span)
                return
        src = self.endpoint(src_path, span, stages_only=False)
        dst = self.endpoint(dst_path, span, stages_only=False)
        if src is None or dst is None:
            return
        self.spans[self.model._insert_flow(src, dst, thing)] = span

    def link_trigger(self, src_path: list[str], dst_path: list[str], span: SourceSpan) -> None:
        src = self.endpoint(src_path, span, stages_only=True)
        dst = self.endpoint(dst_path, span, stages_only=True)
        if src is None or dst is None:
            return
        self.spans[self.model.add_trigger(src, dst)] = span

    def link_region(self, name: str, name_span: SourceSpan, members: list) -> None:
        if not self.new_name("region", name, self.regions, name_span):
            return
        stage_ids: set[str] = set()
        for segments, span in members:
            resolved = self.resolve(segments, span)
            if resolved is None:
                continue
            kind, entity_id = resolved
            if kind == "stage":
                stage_ids.add(entity_id)
            elif kind == "machine":
                stage_ids.update(self.model.stages_under(entity_id))
            else:
                self.note("P4", "a storage cannot be a region member", span)
        self.regions[name] = RegionDecl(name, tuple(sorted(stage_ids)))

    def link_event(self, decl: EventDecl) -> None:
        if not self.new_name("event", decl.name, self.events, decl.span):
            return
        if decl.region not in self.regions:
            self.note("P4", f"event {decl.name!r} names unknown region {decl.region!r}", decl.span)
            return
        self.events[decl.name] = decl

    def link_behavior(self, decl: BehaviorDecl) -> None:
        names = [n for n in (decl.source, *decl.targets) if n is not None]
        ok = True
        for name in names:
            if name not in self.events:
                self.note("P4", f"behavior references unknown event {name!r}", decl.span)
                ok = False
        if ok:
            self.behavior.append(decl)


def parse(text: str, source: str = "<input>") -> ParseResult:
    """Parse DSL text into a ModelDocument. Total: never raises on any input."""
    src = _Text(text, source)
    words, starts, diagnostics = _lex(src)
    parser = _Parser(src, words, starts)
    parser.parse_document()
    diagnostics.extend(parser.diags)
    linker = _Linker(parser)
    document = linker.link()
    diagnostics.extend(linker.diags)
    diagnostics.sort(key=lambda d: (d.span.start if d.span else 1 << 60, d.code, d.message))
    failed = has_errors(diagnostics)
    # The lexer and parser cap themselves; the linker can still pile on for
    # pathological inputs, so enforce the ceiling over the merged list. The
    # verdict is taken before truncation so errors can never be trimmed away.
    del diagnostics[MAX_DIAGNOSTICS:]
    if failed:
        return ParseResult(None, diagnostics)
    return ParseResult(document, diagnostics)
