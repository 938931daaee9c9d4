"""Textual frontend: lexer, recovering parser, and document linking.

Parsing is total: any byte sequence yields a ParseResult, never an exception.
Errors are collected as spanned diagnostics (codes P1..P5) with panic-mode
recovery at statement boundaries, so one file can report many findings.

Concrete syntax (statements end with ';', '#' starts a line comment):

  machine <name> { stage <kind>; machine <name> { ... } }
  flow [<thing>]: <path> -> <path>;
  trigger: <path> -> <path>;
  storage <thing> in <machine path>;
  region <name> = { <path>, <path>, ... };
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

The lexer makes one match of a compiled regex per token, with the blanks,
newlines and comments before the token folded into the match; lines are
counted by stepping over the newline offsets the tokens pass. Only strings
with escapes or without a closing quote, and characters no token starts
with, take a per-character path. Tokens are plain slotted records.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from tmkit.diagnostics import Diagnostic, SourceSpan, has_errors, make
from tmkit.model import (
    ActionKind,
    DuplicateEntityError,
    InvalidNameError,
    KIND_NAMES,
    StaticModel,
    UnknownEntityError,
    has_control_character,
    validate_name,
)

MAX_DIAGNOSTICS = 100
MAX_NESTING = 64

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(-[A-Za-z0-9_]+)*\Z")

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
    name: str
    region: str
    duration: int = 1
    label: str | None = None
    span: SourceSpan | None = None


@dataclass(frozen=True, slots=True)
class BehaviorDecl:
    """One behavior statement: kind is "seq", "choice", "concurrent", or "repeat"."""

    kind: str
    source: str | None
    targets: tuple[str, ...]
    bound: int | None = None
    span: SourceSpan | None = None


@dataclass(slots=True)
class ModelDocument:
    model: StaticModel
    regions: dict[str, RegionDecl]
    events: dict[str, EventDecl]
    behavior: tuple[BehaviorDecl, ...]
    spans: dict[str, SourceSpan] = field(default_factory=dict)
    source: str = "<input>"


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
    source: str = "<built>",
) -> ModelDocument:
    """Assemble a document programmatically; raises on dangling references."""
    region_decls: dict[str, RegionDecl] = {}
    for name, stage_ids in (regions or {}).items():
        for stage_id in stage_ids:
            if stage_id not in model.stages:
                raise UnknownEntityError(f"region {name!r} references unknown stage {stage_id!r}")
        region_decls[name] = RegionDecl(name, tuple(sorted(set(stage_ids))))
    event_decls = dict(events or {})
    for event in event_decls.values():
        if event.region not in region_decls:
            raise UnknownEntityError(f"event {event.name!r} references unknown region {event.region!r}")
        if event.duration < 1:
            raise ValueError(f"event {event.name!r} duration must be >= 1")
        if event.label is not None and has_control_character(event.label):
            raise ValueError(f"event {event.name!r} label contains a control character")
    for decl in behavior:
        for name in (decl.source, *decl.targets):
            if name is not None and name not in event_decls:
                raise UnknownEntityError(f"behavior references unknown event {name!r}")
    if not model.frozen:
        model.freeze()
    return ModelDocument(model, region_decls, event_decls, tuple(behavior), {}, source)


# -- lexer ------------------------------------------------------------------

# One match per token, blanks, newlines and comments before it included.
# Strings with escapes or without a closing quote, and stray characters, match
# no group and go to _lex_irregular.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\f\v\n]+|#[^\n]*)*"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"[^"\\\n]*")'
    r"|(?P<punct>->|[{};:,|=.]))?"
)


@dataclass(slots=True)
class Token:
    kind: str  # "ident" | "string" | "int" | "punct" | "eof"
    text: str
    value: object
    start: int
    end: int
    line: int
    column: int


def _lex(text: str, source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append = tokens.append
    match = _TOKEN_RE.match
    n = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    newline = text.find("\n")  # offset of the newline that ends `line`, or n
    if newline < 0:
        newline = n
    while True:
        found = match(text, pos)
        kind = found.lastgroup
        if kind is None:
            start = found.end()
        else:
            start, pos = found.span(kind)
        while newline < start:
            line += 1
            line_start = newline + 1
            newline = text.find("\n", line_start)
            if newline < 0:
                newline = n
        if kind is None:
            if start == n:
                break
            pos = _lex_irregular(text, source, start, line, start - line_start + 1, tokens, diags)
            continue
        word = found[kind]
        if kind == "int":
            value: object = int(word)
        elif kind == "string":
            value = word[1:-1]
        else:
            value = word
        append(Token(kind, word, value, start, pos, line, start - line_start + 1))
    tokens.append(Token("eof", "", None, n, n, line, n - line_start + 1))
    return tokens, diags


def _lex_irregular(
    text: str,
    source: str,
    start: int,
    line: int,
    column: int,
    tokens: list[Token],
    diags: list[Diagnostic],
) -> int:
    """Lex the string or stray character at `start`, which sits at `line` and
    `column`, one character at a time. Returns the offset after it."""
    n = len(text)

    def err(message: str, begin: int, end: int) -> None:
        if len(diags) < MAX_DIAGNOSTICS:
            # An escaped newline can put `begin` on a later line than `start`.
            newline = text.rfind("\n", start, begin)
            if newline < 0:
                at = (line, column + begin - start)
            else:
                at = (line + text.count("\n", start, begin), begin - newline)
            diags.append(make("P1", message, SourceSpan(source, begin, end, *at)))

    if text[start] != '"':
        err(f"unexpected character {text[start]!r}", start, start + 1)
        return start + 1
    i = start + 1
    parts: list[str] = []
    while i < n:
        c = text[i]
        if c == '"':
            i += 1
            tokens.append(Token("string", text[start:i], "".join(parts), start, i, line, column))
            return i
        if c == "\n":
            break
        if c == "\\":
            if i + 1 < n and text[i + 1] in ('"', "\\"):
                parts.append(text[i + 1])
                i += 2
                continue
            err("unknown escape in string", i, min(i + 2, n))
            i = min(i + 2, n)
            continue
        parts.append(c)
        i += 1
    err("unterminated string", start, i)
    return i


# -- parse tree -------------------------------------------------------------


@dataclass(slots=True)
class _StageItem:
    kind: ActionKind
    span: SourceSpan


@dataclass(slots=True)
class _MachineItem:
    name: str
    name_span: SourceSpan
    stages: list[_StageItem] = field(default_factory=list)
    children: list["_MachineItem"] = field(default_factory=list)


@dataclass(slots=True)
class _FlowItem:
    thing: str | None
    src: list[str]
    dst: list[str]
    span: SourceSpan


@dataclass(slots=True)
class _TriggerItem:
    src: list[str]
    dst: list[str]
    span: SourceSpan


@dataclass(slots=True)
class _StorageItem:
    thing: str
    path: list[str]
    span: SourceSpan


@dataclass(slots=True)
class _RegionItem:
    name: str
    name_span: SourceSpan
    members: list[tuple[list[str], SourceSpan]]


@dataclass(slots=True)
class _EventItem:
    name: str
    name_span: SourceSpan
    region: str
    duration: int
    label: str | None


class _Bail(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.diags: list[Diagnostic] = []
        self.machines: list[_MachineItem] = []
        self.flows: list[_FlowItem] = []
        self.triggers: list[_TriggerItem] = []
        self.storages: list[_StorageItem] = []
        self.regions: list[_RegionItem] = []
        self.events: list[_EventItem] = []
        self.behavior: list[BehaviorDecl] = []

    # -- plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def token_span(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.source, tok.start, max(tok.end, tok.start), tok.line, tok.column)

    def error(self, message: str, tok: Token | None = None, code: str = "P2") -> None:
        tok = tok or self.peek()
        if len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(make(code, message, self.token_span(tok)))
        raise _Bail()

    def note(self, code: str, message: str, span: SourceSpan | None) -> None:
        if len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(make(code, message, span))

    def expect_punct(self, text: str, what: str) -> Token:
        if not self.at_punct(text):
            self.error(f"expected {text!r} {what}")
        return self.advance()

    def expect_word(self, word: str, what: str) -> Token:
        if not self.at_word(word):
            self.error(f"expected {word!r} {what}")
        return self.advance()

    def parse_name(self, what: str) -> tuple[str, Token]:
        tok = self.peek()
        if tok.kind in ("ident", "string"):
            self.advance()
            return str(tok.value), tok
        self.error(f"expected a name {what}")
        raise AssertionError  # pragma: no cover

    def parse_int(self, what: str) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "int":
            self.error(f"expected a number {what}")
        self.advance()
        return int(tok.value), tok  # type: ignore[arg-type]

    def parse_path(self, what: str) -> list[str]:
        segments = [self.parse_name(what)[0]]
        while self.at_punct("."):
            self.advance()
            segments.append(self.parse_name("after '.'")[0])
        return segments

    def parse_member(self) -> tuple[list[str], SourceSpan]:
        """A region member path, with its span for the linker's findings."""
        first = self.peek()
        segments = self.parse_path("for a region member")
        last = self.tokens[self.pos - 1]
        return segments, SourceSpan(self.source, first.start, last.end, first.line, first.column)

    def sync(self) -> None:
        """Skip to just past the next ';' at brace depth 0, or stop before '}'/eof."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return
            self.advance()

    def skip_block(self) -> None:
        """Consume a balanced '{ ... }' without interpreting it."""
        if not self.at_punct("{"):
            return
        depth = 0
        while True:
            tok = self.advance()
            if tok.kind == "eof":
                return
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth -= 1
                if depth == 0:
                    return

    # -- grammar --

    def parse_document(self) -> None:
        while self.peek().kind != "eof":
            if len(self.diags) >= MAX_DIAGNOSTICS:
                return
            before = self.pos
            try:
                self.parse_item()
            except _Bail:
                self.sync()
            if self.pos == before:
                self.advance()  # guarantee progress on any input

    def parse_item(self) -> None:
        tok = self.peek()
        if tok.kind != "ident":
            self.error("expected a declaration")
        if tok.text == "machine":
            item = self.parse_machine(1)
            if item is not None:
                self.machines.append(item)
        elif tok.text == "flow":
            self.parse_flow()
        elif tok.text == "trigger":
            self.parse_trigger()
        elif tok.text == "storage":
            self.parse_storage()
        elif tok.text == "region":
            self.parse_region()
        elif tok.text == "event":
            self.parse_event()
        elif tok.text == "behavior":
            self.parse_behavior()
        else:
            self.error(f"unknown declaration {tok.text!r}")

    def parse_machine(self, depth: int) -> _MachineItem | None:
        self.expect_word("machine", "to start a machine")
        name, name_tok = self.parse_name("for the machine")
        if depth > MAX_NESTING:
            self.note("P2", "machine nesting too deep", self.token_span(name_tok))
            self.skip_block()
            return None
        item = _MachineItem(name, self.token_span(name_tok))
        self.expect_punct("{", "to open the machine body")
        while not self.at_punct("}") and self.peek().kind != "eof":
            if len(self.diags) >= MAX_DIAGNOSTICS:
                break
            before = self.pos
            try:
                if self.at_word("stage"):
                    self.advance()
                    kind_value, kind_tok = self.parse_name("for the stage kind")
                    if kind_value not in KIND_NAMES:
                        self.error(f"unknown stage kind {kind_value!r}", kind_tok)
                    self.expect_punct(";", "after the stage")
                    item.stages.append(_StageItem(ActionKind(kind_value), self.token_span(kind_tok)))
                elif self.at_word("machine"):
                    child = self.parse_machine(depth + 1)
                    if child is not None:
                        item.children.append(child)
                else:
                    self.error("expected 'stage' or 'machine' inside a machine")
            except _Bail:
                self.sync()
            if self.pos == before:
                self.advance()
        self.expect_punct("}", "to close the machine body")
        return item

    def parse_flow(self) -> None:
        start = self.expect_word("flow", "to start a flow")
        thing: str | None = None
        if not self.at_punct(":"):
            thing, _ = self.parse_name("for the flow thing")
        self.expect_punct(":", "after the flow head")
        src = self.parse_path("for the flow source")
        self.expect_punct("->", "between flow endpoints")
        dst = self.parse_path("for the flow target")
        end = self.expect_punct(";", "after the flow")
        self.flows.append(
            _FlowItem(thing, src, dst, SourceSpan(self.source, start.start, end.end, start.line, start.column))
        )

    def parse_trigger(self) -> None:
        start = self.expect_word("trigger", "to start a trigger")
        self.expect_punct(":", "after 'trigger'")
        src = self.parse_path("for the trigger source")
        self.expect_punct("->", "between trigger endpoints")
        dst = self.parse_path("for the trigger target")
        end = self.expect_punct(";", "after the trigger")
        self.triggers.append(
            _TriggerItem(src, dst, SourceSpan(self.source, start.start, end.end, start.line, start.column))
        )

    def parse_storage(self) -> None:
        start = self.expect_word("storage", "to start a storage")
        thing, _ = self.parse_name("for the stored thing")
        self.expect_word("in", "after the thing")
        path = self.parse_path("for the owning machine")
        end = self.expect_punct(";", "after the storage")
        self.storages.append(
            _StorageItem(thing, path, SourceSpan(self.source, start.start, end.end, start.line, start.column))
        )

    def parse_region(self) -> None:
        self.expect_word("region", "to start a region")
        name, name_tok = self.parse_name("for the region")
        self.expect_punct("=", "after the region name")
        self.expect_punct("{", "to open the member list")
        members: list[tuple[list[str], SourceSpan]] = []
        members.append(self.parse_member())
        while self.at_punct(","):
            self.advance()
            members.append(self.parse_member())
        self.expect_punct("}", "to close the member list")
        self.expect_punct(";", "after the region")
        self.regions.append(_RegionItem(name, self.token_span(name_tok), members))

    def parse_event(self) -> None:
        self.expect_word("event", "to start an event")
        name, name_tok = self.parse_name("for the event")
        self.expect_word("on", "after the event name")
        region, _ = self.parse_name("for the region")
        duration = 1
        label: str | None = None
        seen: set[str] = set()
        while self.peek().kind == "ident" and self.peek().text in ("duration", "label"):
            word = self.advance().text
            if word in seen:
                self.error(f"duplicate {word!r} clause")
            seen.add(word)
            if word == "duration":
                duration, dur_tok = self.parse_int("for the duration")
                if duration < 1:
                    self.error("duration must be >= 1", dur_tok, code="P5")
            else:
                tok = self.peek()
                if tok.kind != "string":
                    self.error("expected a quoted label")
                self.advance()
                label = str(tok.value)
                if has_control_character(label):
                    self.error("label contains a control character", tok, code="P5")
        self.expect_punct(";", "after the event")
        self.events.append(_EventItem(name, self.token_span(name_tok), region, duration, label))

    def parse_behavior(self) -> None:
        self.expect_word("behavior", "to start a behavior block")
        self.expect_punct("{", "to open the behavior block")
        while not self.at_punct("}") and self.peek().kind != "eof":
            if len(self.diags) >= MAX_DIAGNOSTICS:
                break
            before = self.pos
            try:
                self.parse_behavior_statement()
            except _Bail:
                self.sync()
            if self.pos == before:
                self.advance()
        self.expect_punct("}", "to close the behavior block")

    def parse_group(self, separator: str, what: str) -> tuple[tuple[str, ...], Token]:
        self.expect_punct("{", f"to open the {what} group")
        names = [self.parse_name(f"in the {what} group")[0]]
        while self.at_punct(separator):
            self.advance()
            names.append(self.parse_name(f"in the {what} group")[0])
        end = self.expect_punct("}", f"to close the {what} group")
        if len(names) < 2:
            self.error(f"a {what} group needs at least two events", end)
        return tuple(names), end

    def parse_behavior_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "repeat":
            start = self.advance()
            source, _ = self.parse_name("for the repeated event")
            target = source
            if self.at_punct("->"):
                self.advance()
                target, _ = self.parse_name("for the repeat target")
            bound: int | None = None
            if self.at_word("bound"):
                self.advance()
                bound, bound_tok = self.parse_int("for the bound")
                if bound < 1:
                    self.error("bound must be >= 1", bound_tok, code="P5")
            end = self.expect_punct(";", "after the repeat")
            self.behavior.append(
                BehaviorDecl(
                    "repeat",
                    source,
                    (target,),
                    bound,
                    SourceSpan(self.source, start.start, end.end, start.line, start.column),
                )
            )
            return
        if tok.kind == "ident" and tok.text in ("choice", "concurrent"):
            self.parse_group_statement(None, tok)
            return
        start = tok
        source, _ = self.parse_name("to start a behavior statement")
        self.expect_punct("->", "after the source event")
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text in ("choice", "concurrent"):
            self.parse_group_statement(source, start)
            return
        target, _ = self.parse_name("for the target event")
        end = self.expect_punct(";", "after the edge")
        self.behavior.append(
            BehaviorDecl(
                "seq",
                source,
                (target,),
                None,
                SourceSpan(self.source, start.start, end.end, start.line, start.column),
            )
        )

    def parse_group_statement(self, source: str | None, start: Token) -> None:
        word = self.advance().text  # "choice" or "concurrent"
        separator = "|" if word == "choice" else ","
        targets, _ = self.parse_group(separator, word)
        end = self.expect_punct(";", f"after the {word} group")
        self.behavior.append(
            BehaviorDecl(
                word,
                source,
                targets,
                None,
                SourceSpan(self.source, start.start, end.end, start.line, start.column),
            )
        )


# -- linking ----------------------------------------------------------------


class _Linker:
    def __init__(self, parser: _Parser, source: str):
        self.p = parser
        self.source = source
        self.model = StaticModel()
        self.spans: dict[str, SourceSpan] = {}
        self.diags: list[Diagnostic] = []
        self.regions: dict[str, RegionDecl] = {}
        self.events: dict[str, EventDecl] = {}
        self.behavior: list[BehaviorDecl] = []

    def note(self, code: str, message: str, span: SourceSpan | None) -> None:
        self.diags.append(make(code, message, span))

    def link(self) -> ModelDocument:
        for item in self.p.machines:
            self.link_machine(item, None)
        for storage in self.p.storages:
            self.link_storage(storage)
        for flow in self.p.flows:
            self.link_flow(flow)
        for trigger in self.p.triggers:
            self.link_trigger(trigger)
        for region in self.p.regions:
            self.link_region(region)
        for event in self.p.events:
            self.link_event(event)
        for decl in self.p.behavior:
            self.link_behavior(decl)
        self.model.freeze()
        return ModelDocument(
            self.model, self.regions, self.events, tuple(self.behavior), self.spans, self.source
        )

    def link_machine(self, item: _MachineItem, parent: str | None) -> None:
        try:
            machine_id = self.model.add_machine(item.name, parent)
        except InvalidNameError as exc:
            self.note("P5", str(exc), item.name_span)
            return
        except DuplicateEntityError as exc:
            self.note("P3", str(exc), item.name_span)
            return
        self.spans[machine_id] = item.name_span
        for stage in item.stages:
            try:
                stage_id = self.model.add_stage(machine_id, stage.kind)
                self.spans[stage_id] = stage.span
            except DuplicateEntityError as exc:
                self.note("P3", str(exc), stage.span)
        for child in item.children:
            self.link_machine(child, machine_id)

    def resolve(self, segments: list[str], span: SourceSpan) -> tuple[str, str] | None:
        try:
            return self.model.resolve(segments)
        except UnknownEntityError as exc:
            self.note("P4", str(exc), span)
            return None

    def link_storage(self, item: _StorageItem) -> None:
        resolved = self.resolve(item.path, item.span)
        if resolved is None:
            return
        kind, machine_id = resolved
        if kind != "machine":
            self.note("P4", f"storage owner must be a machine, not a {kind}", item.span)
            return
        try:
            storage_id = self.model.add_storage(machine_id, item.thing)
            self.spans[storage_id] = item.span
        except InvalidNameError as exc:
            self.note("P5", str(exc), item.span)
        except DuplicateEntityError as exc:
            self.note("P3", str(exc), item.span)

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

    def link_flow(self, item: _FlowItem) -> None:
        src = self.endpoint(item.src, item.span, stages_only=False)
        dst = self.endpoint(item.dst, item.span, stages_only=False)
        if src is None or dst is None:
            return
        flow_id = self.model.add_flow(src, dst, item.thing)
        self.spans[flow_id] = item.span

    def link_trigger(self, item: _TriggerItem) -> None:
        src = self.endpoint(item.src, item.span, stages_only=True)
        dst = self.endpoint(item.dst, item.span, stages_only=True)
        if src is None or dst is None:
            return
        trigger_id = self.model.add_trigger(src, dst)
        self.spans[trigger_id] = item.span

    def link_region(self, item: _RegionItem) -> None:
        if item.name in self.regions:
            self.note("P3", f"region {item.name!r} is already declared", item.name_span)
            return
        try:
            validate_name(item.name)
        except InvalidNameError as exc:
            self.note("P5", str(exc), item.name_span)
            return
        stage_ids: set[str] = set()
        for segments, span in item.members:
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
        self.regions[item.name] = RegionDecl(item.name, tuple(sorted(stage_ids)))

    def link_event(self, item: _EventItem) -> None:
        if item.name in self.events:
            self.note("P3", f"event {item.name!r} is already declared", item.name_span)
            return
        try:
            validate_name(item.name)
        except InvalidNameError as exc:
            self.note("P5", str(exc), item.name_span)
            return
        if item.region not in self.regions:
            self.note("P4", f"event {item.name!r} names unknown region {item.region!r}", item.name_span)
            return
        self.events[item.name] = EventDecl(item.name, item.region, item.duration, item.label, item.name_span)

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
    tokens, diagnostics = _lex(text, source)
    parser = _Parser(tokens, source)
    parser.parse_document()
    diagnostics.extend(parser.diags)
    linker = _Linker(parser, source)
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
