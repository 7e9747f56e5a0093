"""Mutated input files: the parsers and the CLI fail only in the ways they document.

Each document starts from a valid .alg or change document and takes a few
random edits (a span deleted or replaced, a token inserted, a line dropped,
doubled or moved). parse_algebra and parse_change must return or raise an
AlgebraError; cli.main must return 0, 1 or 2 and raise nothing. Random
text as a `construct` rational argument is held to the same.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

import leibnizalg as L
from leibnizalg import cli

CHANGE_TEXT = """\
change collapse
dim 8
basis e h f x0 x1 x2 y1 y2
new y1 = 1/2*y1
new y2 = -3/2*y1 + y2
"""
ALG_TEXTS = tuple(L.serialize_algebra(t) for t in (
    L.make_sl2(),
    L.make_L_prefamily(),
    L.make_L_family(1, 0, 1),
    L.make_module_extension(1, 2),
))
# pieces of the grammar, and a few characters outside it
TOKENS = (
    "0", "1", "2", "7", "/", "-", "+", "*", "^", "=", "[", "]", ",", " ", "\t", "\n", "#",
    "algebra", "change", "dim", "params", "basis", "new", "e", "h", "x0", "y1", "y2", "l", "a", "mu",
    "1/0", "^3", "é", "\x00",
)


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        lines = text.splitlines(keepends=True)
        op = draw(st.sampled_from(("delete", "insert", "replace", "drop", "double", "move")))
        if op in ("drop", "double", "move") and lines:
            i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            line = lines.pop(i)
            if op == "double":
                lines[i:i] = [line, line]
            elif op == "move":
                lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
            text = "".join(lines)
            continue
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = start if op == "insert" else draw(st.integers(min_value=start, max_value=min(len(text), start + 6)))
        text = text[:start] + ("" if op == "delete" else draw(st.sampled_from(TOKENS))) + text[end:]
    return text


@settings(deadline=None, max_examples=300)
@given(mutated(ALG_TEXTS), mutated((CHANGE_TEXT,)))
def test_parsers_raise_only_algebra_errors(alg_text, change_text):
    for parse, text in ((L.parse_algebra, alg_text), (L.parse_change, change_text)):
        try:
            parse(text)
        except L.AlgebraError:
            pass


# every command that reads a file, on mutated files: a.alg and b.alg are
# mutated tables, c.chg a mutated change document
COMMANDS = (
    ("check", "a.alg"),
    ("check", "a.alg", "--mode", "lie", "--porcelain"),
    ("constraints", "a.alg"),
    ("quotient", "a.alg"),
    ("ideal", "a.alg", "--porcelain"),
    ("profile", "a.alg", "b.alg"),
    ("change-basis", "a.alg", "c.chg"),
    ("verify-iso", "a.alg", "b.alg", "c.chg"),
)


@settings(deadline=None, max_examples=100)
@given(mutated(ALG_TEXTS), mutated(ALG_TEXTS), mutated((CHANGE_TEXT,)))
def test_cli_on_mutated_files_exits_0_1_or_2(a_text, b_text, change_text):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("a.alg", a_text), ("b.alg", b_text), ("c.chg", change_text)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([os.path.join(tmp, arg) if "." in arg else arg for arg in argv])
            assert code in (0, 1, 2), (argv, code)
            assert (code == 2) == err.getvalue().startswith("error: "), (argv, err.getvalue())


# rational arguments: `construct` reads them with the .alg scalar grammar
RATIONAL_TEXT = st.text(alphabet="0123456789/+-*^ .eEx", max_size=12) | st.text()


@settings(deadline=None, max_examples=200)
@given(RATIONAL_TEXT)
@example("1e5000")
@example("1.5")
@example("1/0")
@example("")
@example("--")
def test_construct_on_random_rational_exits_0_1_or_2(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["construct", "module-ext", "--m", "1", f"--a={text}"])
        except SystemExit as exc:  # argparse's exit on a usage error
            code = exc.code
    assert code in (0, 1, 2), (text, code)
    assert (code == 2) == ("error: " in err.getvalue()), (text, err.getvalue())
