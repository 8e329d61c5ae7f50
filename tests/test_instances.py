"""Each graft family of ``bigraft.instances`` keeps its document:
``family_pins.json``, plain data that CI reads without pytest too, holds
the sha256 prefix of ``serialize_graft(family(*args))`` for one small
argument set per family, recorded before the families moved there."""

import inspect
import json

import pytest

from bigraft import instances

from oracles import FAMILY_PINS, family_digest

PINS = json.loads(FAMILY_PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, args, digest", PINS, ids=[row[0] for row in PINS])
def test_family_document_is_pinned(name, args, digest):
    assert family_digest(name, args) == digest


def test_every_family_is_pinned():
    """A public builder that takes arguments is a family, and has a row."""
    families = [name for name, fn in vars(instances).items()
                if inspect.isfunction(fn) and fn.__module__ == instances.__name__
                and not name.startswith("_") and inspect.signature(fn).parameters]
    assert sorted(families) == sorted(name for name, _, _ in PINS)
