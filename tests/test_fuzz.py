"""Mutated documents at the input boundary.

Random valid documents are cut up token by token: tokens are deleted,
duplicated and spliced elsewhere, and non-ASCII text, deep nesting and long
digit strings are put in. Whatever comes out, ``check`` must not raise, must
exit 0 or 2 (never 3, an internal error), and must locate every diagnostic
inside the text. Wide powers are left out: no term budget bounds them yet.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sjet.cli import run
from support import rand_document_text

# Whitespace runs and tokens, close enough to the lexer's that most edits land
# on whole tokens; concatenating the pieces gives the text back.
_PIECES = re.compile(
    r"\s+|d/d|->|[A-Za-z_.][A-Za-z0-9_.]*(?:@\d+)?|\d+(?:/\d+)?|\S"
)

_WHERE = st.integers(0, 10**6)
_EDIT = st.one_of(
    st.tuples(st.just("delete"), _WHERE),
    st.tuples(st.just("duplicate"), _WHERE),
    st.tuples(st.just("splice"), _WHERE, st.integers(1, 12), _WHERE),
    st.tuples(
        st.just("insert"),
        _WHERE,
        st.text(
            st.characters(min_codepoint=0x80, codec="utf-8"), min_size=1, max_size=3
        ),
    ),
    st.tuples(st.just("nest"), _WHERE, st.integers(1, 150), st.sampled_from("(-")),
    st.tuples(
        st.just("digits"), _WHERE, st.integers(1, 40) | st.integers(3990, 5000)
    ),
)


def _word(pieces, at: int) -> int:
    """The index of a name or number, so that nesting and digits land where
    an expression may stand."""
    words = [i for i, piece in enumerate(pieces) if piece[0].isalnum()]
    return words[at % len(words)] if words else at % len(pieces)


def mutate(text: str, edits) -> str:
    pieces = _PIECES.findall(text)
    assert "".join(pieces) == text
    for edit in edits:
        kind, at = edit[0], edit[1] % len(pieces)
        if kind == "delete":
            del pieces[at]
        elif kind == "duplicate":
            pieces.insert(at, pieces[at])
        elif kind == "splice":
            moved = pieces[at : at + edit[2]]
            where = edit[3] % len(pieces)
            pieces[where:where] = moved
        elif kind == "insert":
            pieces.insert(at, edit[2])
        elif kind == "nest":
            at = _word(pieces, edit[1])
            opener, depth = edit[3], edit[2]
            closer = ")" if opener == "(" else ""
            pieces[at] = opener * depth + pieces[at] + closer * depth
        else:
            pieces[_word(pieces, edit[1])] = "9" * edit[2]
        if not pieces:
            pieces = [" "]
    return "".join(pieces)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.sman"


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 2**32 - 1), edits=st.lists(_EDIT, min_size=1, max_size=4)
)
def test_check_never_crashes_and_locates_every_error(doc_path, seed, edits):
    text = mutate(rand_document_text(random.Random(seed)), edits)
    doc_path.write_text(text, encoding="utf-8")
    result = run(["check", str(doc_path)])
    assert result.exit_code in (0, 2), result.diagnostics
    lines = text.count("\n") + 1
    for diagnostic in result.diagnostics:
        assert 1 <= diagnostic.line <= lines + 1, diagnostic
        assert diagnostic.column >= 1, diagnostic
