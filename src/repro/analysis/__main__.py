"""Consolidated analysis CLI: ``python -m repro.analysis <command>``.

``lint``
    the per-line REP001–REP008 rules,
``fix``
    apply mechanical lint repairs in place (``lint --fix``).

Each subcommand delegates to :func:`repro.analysis.lint.main` with the
remaining arguments, so ``python -m repro.analysis.lint`` stays usable
directly.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.analysis import lint as _lint

_USAGE = """usage: python -m repro.analysis {lint,fix} [options] [paths]

commands:
  lint   per-line rules REP001-REP008 (see: lint --help)
  fix    apply mechanical lint repairs in place
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return _lint.main(rest)
    if command == "fix":
        return _lint.main(["--fix", *rest])
    print(f"unknown command: {command}\n\n{_USAGE}", end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
