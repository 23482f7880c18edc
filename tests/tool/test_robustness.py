"""Robustness: the tool must never crash on user input.

The original was an interactive program for non-programmer DDAs; any
library error must surface as a status line, not a traceback.  The fuzz
property drives the app with random token streams and asserts it either
keeps running or exits cleanly.
"""

import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.tool.app import ToolApp, main
from repro.workloads.university import build_sc1, build_sc2

_TOKENS = [
    "1", "2", "3", "4", "5", "6", "E", "A", "D", "U", "S", "R", "N", "W",
    "C", "q", "x", "sc1", "sc2", "Student", "Grad_student", "Name", "char",
    "real", "y", "n", "0,n", "1,1", "e", "c", "r", "0", "bogus", "",
    "A Name char y", "A sc1", "sc1 sc2", "Student Grad_student",
]


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(_TOKENS), max_size=40))
def test_random_input_never_crashes(lines):
    app = ToolApp()
    app.session.adopt_schema(build_sc1())
    app.session.adopt_schema(build_sc2())
    for line in lines:
        if app.finished:
            break
        app.render()
        app.feed(line)
    # the app is either alive and renderable, or exited via the main menu
    if not app.finished:
        assert app.render()


@settings(deadline=None, max_examples=20)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=20,
        ),
        max_size=15,
    )
)
def test_arbitrary_text_never_crashes(lines):
    # a random line can be an ``S <name>`` save: run in a scratch
    # directory so its files stay out of the working tree (a
    # function-scoped fixture would trip Hypothesis' health check)
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            app = ToolApp()
            for line in lines:
                if app.finished:
                    break
                app.feed(line)
        finally:
            os.chdir(cwd)


class TestInteractiveMain:
    def test_main_loop_reads_stdin_until_exit(self, capsys):
        with mock.patch("builtins.input", side_effect=["1", "E", "E"]):
            code = main()
        assert code == 0
        out = capsys.readouterr().out
        assert "Schema integration tool" in out
        assert "Schema Name Collection Screen" in out
        assert "bye" in out

    def test_main_loop_handles_eof(self, capsys):
        with mock.patch("builtins.input", side_effect=EOFError):
            code = main()
        assert code == 0
        assert "bye" in capsys.readouterr().out
