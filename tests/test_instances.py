"""Every pinned output keeps its digest: ``pins.json`` holds the full
sha256 of each graft family's document on one argument set, and of the
``--format json`` stdout of commands on named instances, among them the
scale probes ROADMAP quotes by their first 12 digits.  CI runs this file
again under two fixed hash seeds and a one-minute bound."""

import inspect
import json

import pytest

from bigraft import instances

from oracles import PINS, pin_digest

ROWS = json.loads(PINS.read_text(encoding="utf-8"))


def row_id(row) -> str:
    """``family(args)``, after the command when there is one."""
    command, family, args, _ = row
    call = f"{family}({', '.join(map(repr, args))})"
    return call if command is None else f"{command} {call}"


@pytest.mark.parametrize("command, family, args, digest", ROWS, ids=map(row_id, ROWS))
def test_pinned_output_unchanged(command, family, args, digest):
    assert pin_digest(command, family, args) == digest


def test_every_family_is_pinned():
    """A public builder that takes arguments is a family, and has a
    document row."""
    families = [name for name, fn in vars(instances).items()
                if inspect.isfunction(fn) and fn.__module__ == instances.__name__
                and not name.startswith("_") and inspect.signature(fn).parameters]
    assert sorted(families) == sorted(family for command, family, _, _ in ROWS
                                      if command is None)
