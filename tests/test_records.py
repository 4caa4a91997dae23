"""The record types are named tuples: their repr, hash, length and
immutability (no field can be set, and no attribute added).  Importing the
command line loads neither ``dataclasses`` nor ``inspect`` nor ``typing``."""

import os
import subprocess
import sys

import pytest

from tiltbench import corpus
from tiltbench.quiver import Arrow, Path
from tiltbench.reps import simple
from tiltbench.tilting import ConstructedTilting, TiltingContext, construct_tpq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_loads_no_dataclasses_inspect_or_typing():
    probe = "import sys, tiltbench.cli; print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_path_and_arrow_repr_hash_and_length():
    p = Path("1", ("a", "b"))
    assert repr(p) == "Path(source='1', arrows=('a', 'b'))"
    assert hash(p) == hash((p.source, p.arrows))
    assert len(p) == 2 and p
    trivial = Path("1", ())
    assert len(trivial) == 0 and not trivial
    assert repr(Arrow("a", "1", "2")) == "Arrow(name='a', source='1', target='2')"


def test_path_replace_and_make_for_any_arrow_count():
    """``_make``, and ``_replace`` through it, check the two fields, not the
    arrow count that ``len`` gives."""
    for n in range(4):
        p = Path("1", ("a", "b", "c")[:n])
        assert p._replace(source="2") == Path("2", p.arrows)
        assert Path._make(["3", p.arrows]) == Path("3", p.arrows)
    with pytest.raises(TypeError, match="Expected 2 arguments, got 1"):
        Path._make(["1"])
    with pytest.raises(ValueError, match="Got unexpected field names"):
        Path("1", ())._replace(target="2")


def test_records_are_immutable():
    a = corpus.fig1_algebra()
    ctx = TiltingContext(a, corpus.fig1_tilting_complex(a))
    records = [
        (Path("1", ()), "source"),
        (Arrow("a", "1", "2"), "name"),
        (ctx.end_data().presentation, "nil_index"),
        (ctx.nust(), "e_labels"),
        (ctx.tilting_report(), "is_tilting_verdict"),
        (construct_tpq(corpus.sec5_algebra(), ["1"], ["3", "4"]), "proved_by_construction"),
        (ctx.end_data(), "presentation"),
        (ctx.stable_image(simple(a, "1")), "module"),
    ]
    for record, field in records:
        for name in (field, "note"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_constructed_tilting_defaults_to_proved_by_construction():
    assert ConstructedTilting("c", "raw", ["1"], [], 1, 1).proved_by_construction is True
