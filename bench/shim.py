"""Import segrekit from a checkout's ``src`` directory, on any Python >= 3.10.

Python 3.11 refuses an unhashable dataclass instance as a field default, and
``segrekit.ideal`` declares ``Ideal.limits`` with a default ``Limits()`` made
by a plain (eq=True, unhashable) ``@dataclass``.  While segrekit is being
imported, and only then, ``dataclasses.dataclass`` is wrapped so that this
one class is declared with ``unsafe_hash=True``.  A ``Limits`` that is
already hashable (frozen, or given an explicit ``__hash__``) is left as
written, so the shim does nothing once the package imports on its own.
"""

from __future__ import annotations

import dataclasses
import os
import sys

TARGET = ("segrekit.ideal", "Limits")


class ImportFailed(RuntimeError):
    pass


def _would_be_unhashable(cls, kwargs) -> bool:
    if kwargs.get("unsafe_hash") or kwargs.get("frozen"):
        return False
    if not kwargs.get("eq", True):
        return False
    return "__hash__" not in cls.__dict__


def import_segrekit(root: str):
    """Import segrekit from ``<root>/src``; return (module, shim_applied).

    Raises ImportFailed when the checkout has no importable segrekit or when
    a different copy of the package would be used."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "segrekit", "__init__.py")):
        raise ImportFailed(f"no segrekit package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)

    original = dataclasses.dataclass
    applied = []

    def patched(cls=None, /, **kwargs):
        def wrap(c):
            if (c.__module__, c.__qualname__) == TARGET and _would_be_unhashable(c, kwargs):
                applied.append(c.__qualname__)
                return original(c, **{**kwargs, "unsafe_hash": True})
            return original(c, **kwargs)

        return wrap if cls is None else wrap(cls)

    dataclasses.dataclass = patched
    try:
        import segrekit
    except Exception as exc:
        raise ImportFailed(f"import segrekit failed: {exc!r}") from exc
    finally:
        dataclasses.dataclass = original
    where = os.path.dirname(os.path.abspath(segrekit.__file__))
    if where != os.path.join(src, "segrekit"):
        raise ImportFailed(f"segrekit imported from {where}, not from {src}")
    return segrekit, bool(applied)
