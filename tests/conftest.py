"""Shared fixtures and seeded generators for the test suite."""
from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import tmkit
from tmkit import (
    ActionKind,
    BehaviorDecl,
    BehaviorGraph,
    DuplicateEntityError,
    EventDecl,
    FirstDeclared,
    ModelDocument,
    ModelError,
    SeededRandom,
    StaticModel,
    build_behavior,
    define_event,
    document_from_parts,
)


def load_perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def corpus() -> dict[str, ModelDocument]:
    docs: dict[str, ModelDocument] = {}
    for name in tmkit.corpus_names():
        result = tmkit.parse(tmkit.corpus_text(name), source=f"{name}.tm")
        assert result.ok, [d.render() for d in result.diagnostics]
        docs[name] = result.document
    return docs


# -- seeded random generators -------------------------------------------------

_NAME_STEMS = ("gear", "duct", "lobby", "crate", "pump", "relay", "chute", "track")


def machine_name(rng: random.Random, index: int) -> str:
    style = rng.randrange(5)
    stem = rng.choice(_NAME_STEMS)
    if style == 0:
        return f"{stem}{index}"
    if style == 1:
        return f"{stem}-{index}"
    if style == 2:
        return f"{stem} {index}"  # needs quoting
    if style == 3:
        return f"{stem}\\{index}"  # backslash, exercises escaping
    return f"{stem}.{index}".replace(".", "_")


def make_random_model(rng: random.Random, max_machines: int = 8, min_machines: int = 1) -> StaticModel:
    """A structurally arbitrary model: flows may well be illegal on purpose."""
    model = StaticModel()
    machine_ids: list[str] = []
    for index in range(rng.randint(min_machines, max_machines)):
        parent = rng.choice(machine_ids) if machine_ids and rng.random() < 0.4 else None
        mid = model.add_machine(machine_name(rng, index), parent)
        machine_ids.append(mid)
        for kind in rng.sample(list(ActionKind), rng.randint(1, len(ActionKind))):
            model.add_stage(mid, kind)
    for index in range(rng.randint(0, 3)):
        model.add_storage(rng.choice(machine_ids), f"stuff{index}")
    nodes = sorted(model.stages) + sorted(model.storages)
    for _ in range(rng.randint(0, 2 * len(nodes))):
        model.add_flow(rng.choice(nodes), rng.choice(nodes), rng.choice((None, "x", "y")))
    stages = sorted(model.stages)
    for _ in range(rng.randint(0, 3)):
        model.add_trigger(rng.choice(stages), rng.choice(stages))
    model.freeze()
    return model


def grow_random_model(rng: random.Random, steps: int = 40):
    """Build an unfrozen model one random mutation at a time, yielding it after
    each step, so that indexes can be queried and then outgrown. Names repeat
    and the root machine is picked on purpose: a rejected duplicate, or a
    stage or storage that the root refuses, must leave the indexes as they
    were."""
    model = StaticModel()
    names = ("gear", "pump", "duct", "stuff0", "stuff1")
    for _ in range(steps):
        machines = sorted(model.machines)
        nodes = sorted(model.stages) + sorted(model.storages)
        op = rng.randrange(7)
        try:
            if op == 0 or len(machines) == 1:
                model.add_machine(rng.choice(names), rng.choice((None, *machines)))
            elif op in (1, 2):
                model.add_stage(rng.choice(machines), rng.choice(list(ActionKind)))
            elif op == 3:
                model.add_storage(rng.choice(machines), rng.choice(names))
            elif op in (4, 5) and nodes:
                model.add_flow(rng.choice(nodes), rng.choice(nodes), rng.choice((None, "x")))
            elif op == 6 and model.stages:
                model.add_trigger(rng.choice(sorted(model.stages)), rng.choice(sorted(model.stages)))
        except DuplicateEntityError:
            pass
        except ModelError as exc:
            assert str(exc).startswith("the root machine 'world' holds no "), exc
        yield model


def make_random_document(rng: random.Random, max_machines: int = 8, min_machines: int = 1) -> ModelDocument:
    """A random model plus regions, events, and behavior for format testing.
    Region health and behavior runnability are irrelevant here."""
    model = make_random_model(rng, max_machines, min_machines)
    stages = sorted(model.stages)
    regions: dict[str, tuple[str, ...]] = {}
    events: dict[str, EventDecl] = {}
    for index in range(rng.randint(0, 4)):
        members = tuple(rng.sample(stages, rng.randint(1, min(4, len(stages)))))
        rname = f"zone{index}"
        regions[rname] = members
        label = rng.choice((None, f'step "{index}" of\\the run'))
        # An event literally named like a keyword must survive formatting.
        ename = "choice" if index == 0 and rng.random() < 0.25 else f"ev{index}"
        events[ename] = EventDecl(ename, rname, rng.randint(1, 3), label)
    names = sorted(events)
    decls: list[BehaviorDecl] = []
    for _ in range(rng.randint(0, 4)):
        if not names:
            break
        kind = rng.choice(("seq", "repeat", "choice", "concurrent"))
        if kind == "seq":
            decls.append(BehaviorDecl("seq", rng.choice(names), (rng.choice(names),)))
        elif kind == "repeat":
            decls.append(
                BehaviorDecl(
                    "repeat",
                    rng.choice(names),
                    (rng.choice(names),),
                    rng.choice((None, rng.randint(1, 5))),
                )
            )
        elif len(names) >= 2:
            source = rng.choice((None, rng.choice(names)))
            targets = tuple(rng.sample(names, rng.randint(2, min(3, len(names)))))
            decls.append(BehaviorDecl(kind, source, targets))
    return document_from_parts(model, regions, events, tuple(decls))


def make_random_behavior(
    rng: random.Random,
    max_events: int = 12,
    min_events: int = 1,
    endless: bool = False,
    start_groups: bool = False,
) -> BehaviorGraph:
    """A runnable behavior graph: single-stage events, forward non-repeat
    edges (event 0 stays initial), repeats anywhere. With `endless`, an event
    whose only way on is a bounded repeat, or none, also gets an unbounded
    repeat: no event is terminal and the run goes on to its horizon. With
    `start_groups`, half the graphs also open with a choice or a fork."""
    count = rng.randint(min_events, max_events)
    model = StaticModel()
    stage_ids: list[str] = []
    for index in range(count):
        mid = model.add_machine(f"unit{index}")
        stage_ids.append(model.add_stage(mid, ActionKind.CREATE))
    model.freeze()
    names = [f"Ev{index}" for index in range(count)]
    events = {
        name: define_event(model, name, [stage_ids[index]], duration=rng.randint(1, 3))[0]
        for index, name in enumerate(names)
    }
    decls: list[BehaviorDecl] = []
    for index in range(1, count):
        if rng.random() < 0.8:
            decls.append(BehaviorDecl("seq", names[rng.randrange(index)], (names[index],)))
    for index in range(count):
        later = names[index + 1 :]
        if len(later) >= 2 and rng.random() < 0.25:
            targets = tuple(rng.sample(later, rng.randint(2, min(3, len(later)))))
            decls.append(BehaviorDecl(rng.choice(("choice", "concurrent")), names[index], targets))
    for index in range(count):
        if rng.random() < 0.3:
            target = names[rng.randrange(index + 1)]
            bound = rng.choice((None, rng.randint(1, 4)))
            decls.append(BehaviorDecl("repeat", names[index], (target,), bound))
    if start_groups and count >= 2 and rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            targets = tuple(rng.sample(names, rng.randint(2, min(3, count))))
            decls.append(BehaviorDecl(rng.choice(("choice", "concurrent")), None, targets))
    if endless:
        goes_on = {d.source for d in decls if d.kind != "repeat" or d.bound is None}
        for index, name in enumerate(names):
            if name not in goes_on:
                decls.append(BehaviorDecl("repeat", name, (names[rng.randrange(index + 1)],)))
    return build_behavior(events, decls)[0]


def make_random_policy(rng: random.Random):
    if rng.random() < 0.5:
        return FirstDeclared()
    return SeededRandom(rng.randrange(2**32))
