import io
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for p in (str(_HERE.parent / "src"), str(_HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest

from alcnr import (
    All, ConstraintSystem, Global, Ind, Interpretation, Member,
    Name, Not, Or, RoleLink, Some, Var, parse_kb, role,
)
from alcnr.cli import run
from _kbs import EX21_TEXT, EX33_TEXT, UNA_CLASH_TEXT, teachers_kb  # noqa: F401


@pytest.fixture(scope="session")
def kb21():
    return parse_kb(EX21_TEXT)


@pytest.fixture(scope="session")
def kb33():
    return parse_kb(EX33_TEXT)


@pytest.fixture(scope="session")
def interp21():
    """The hand-listed model of the university KB."""
    return Interpretation(
        domain=frozenset({"john", "cs156", "csb"}),
        concepts={
            "Student": frozenset({"john"}),
            "Prof": frozenset(),
            "Course": frozenset({"cs156"}),
            "BS": frozenset({"csb"}),
            "MS": frozenset(),
        },
        roles={
            "TEACHES": frozenset({("john", "cs156")}),
            "DEGREE": frozenset({("john", "csb")}),
        },
        individuals={"john": "john", "cs156": "cs156"},
    )


@pytest.fixture(scope="session")
def interp33():
    """The hand-listed model of the cyclic KB (x, y anonymous)."""
    return Interpretation(
        domain=frozenset({"peter", "susan", "x", "y"}),
        concepts={"Italian": frozenset({"x", "y"})},
        roles={
            "FRIEND": frozenset(
                {("peter", "susan"), ("susan", "x"), ("x", "y"), ("y", "y")}
            )
        },
        individuals={"peter": "peter", "susan": "susan"},
    )


def _ex33_pieces():
    italian = Name("Italian")
    friend = role("FRIEND")
    some_fi = Some(friend, italian)
    disj = Or(Not(italian), some_fi)
    peter, susan = Ind("peter"), Ind("susan")
    x, y = Var(0), Var(1)
    base = {
        Global(disj),
        RoleLink(peter, "FRIEND", susan),
        Member(peter, All(friend, Not(italian))),
        Member(susan, some_fi),
    }
    return italian, some_fi, disj, peter, susan, x, y, base


@pytest.fixture(scope="session")
def s_sigma(kb33):
    """The translated system of the cyclic KB, built by hand."""
    *_, base = _ex33_pieces()
    return ConstraintSystem(frozenset(base), 0, kb33)


@pytest.fixture(scope="session")
def s10(kb33):
    """The final completion of the cyclic KB, built by hand: the base system
    plus the ten constraints the derivation adds (x = _v0, y = _v1)."""
    italian, some_fi, disj, peter, susan, x, y, base = _ex33_pieces()
    added = {
        Member(susan, Not(italian)),
        Member(peter, disj),
        Member(susan, disj),
        Member(peter, Not(italian)),
        RoleLink(susan, "FRIEND", x),
        Member(x, italian),
        Member(x, disj),
        Member(x, some_fi),
        RoleLink(x, "FRIEND", y),
        Member(y, italian),
        Member(y, disj),
        Member(y, some_fi),
    }
    return ConstraintSystem(frozenset(base | added), 2, kb33)


@pytest.fixture(scope="session")
def s9(kb33):
    """One step before the completion: y's disjunction not yet resolved."""
    italian, some_fi, disj, peter, susan, x, y, base = _ex33_pieces()
    added = {
        Member(susan, Not(italian)),
        Member(peter, disj),
        Member(susan, disj),
        Member(peter, Not(italian)),
        RoleLink(susan, "FRIEND", x),
        Member(x, italian),
        Member(x, disj),
        Member(x, some_fi),
        RoleLink(x, "FRIEND", y),
        Member(y, italian),
        Member(y, disj),
    }
    return ConstraintSystem(frozenset(base | added), 2, kb33)


def cli(*args, stdin_text=""):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = run(list(args), stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def kb_file(tmp_path):
    def write(text, name="kb.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write
