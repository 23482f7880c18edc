"""The interactive schema-integration tool.

This package reproduces Section 3 of the paper: a menu/form, terminal-
independent interface over the integration library.  The original was C on
Apollo UNIX using ``curses``; here the same screens render onto a
:class:`~repro.tool.terminal.VirtualTerminal` (a character grid), driven
either interactively from stdin (``ecr-integrate``) or by a script of input
lines (tests, benchmarks, examples).

The six main-menu tasks follow the paper:

1. schema collection (Screens 2-5),
2. object-class attribute equivalences (Screens 6-7),
3. object-class assertions (Screens 8-9),
4. relationship-set attribute equivalences,
5. relationship-set assertions,
6. integration and browsing (Screens 10-12, control flow of Figure 6).
"""

from repro._lazy import lazy_exports

__all__ = [
    "VirtualTerminal",
    "ToolSession",
    "ToolApp",
    "run_script",
    "MainMenuScreen",
    # typed results of the session facades (see docs/API.md)
    "FederationAttachment",
    "GlobalRequestResult",
    "RecoveryInfo",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "VirtualTerminal": "repro.tool.terminal",
        "FederationAttachment": "repro.tool.results",
        "GlobalRequestResult": "repro.tool.results",
        "RecoveryInfo": "repro.tool.results",
        "ToolSession": "repro.tool.session",
        "ToolApp": "repro.tool.app",
        "run_script": "repro.tool.app",
        "MainMenuScreen": "repro.tool.screens",
    },
)
