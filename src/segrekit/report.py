"""Deterministic machine-readable reports.

The JSON document on stdout is a pure function of the inputs and the seed:
keys are sorted and timings are kept out of it (they go to the human summary
on stderr instead)."""

from __future__ import annotations

import json
import sys
from typing import Dict, List

# SHA-256 from the interpreter's own module, which loads no OpenSSL, as
# random.py takes its SHA-512; hashlib where the build lacks that module
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SCHEMA = 1


class Report:
    """One command's report, filled in as the command runs."""

    __slots__ = ("command", "seed", "inputs", "limits", "results", "excluded",
                 "status", "notes")

    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.inputs: Dict[str, str] = {}
        self.limits: Dict[str, int] = {}
        self.results: dict = {}
        self.excluded: List[str] = []
        self.status = "ok"
        self.notes: List[str] = []

    def add_input(self, label: str, text: str) -> None:
        """Name an input by the first 16 hex digits of its SHA-256."""
        self.inputs[label] = sha256(text.encode()).hexdigest()[:16]

    def emit(self, elapsed: float) -> None:
        """The JSON document on stdout, the human summary on stderr."""
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "inputs": self.inputs,
            "limits": self.limits,
            "results": self.results,
            "excluded": self.excluded,
            "notes": self.notes,
            "status": self.status,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        lines = ["%s: %s" % (self.command, self.status)]
        for k, v in self.results.items():
            lines.append("  %s = %s" % (k, v))
        if self.excluded:
            lines.append("  excluded locus: " + "; ".join(self.excluded))
        for n in self.notes:
            lines.append("  note: " + n)
        lines.append("  elapsed: %.3fs" % elapsed)
        sys.stderr.write("\n".join(lines) + "\n")
