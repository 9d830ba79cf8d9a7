"""Append-only columnar ledgers of dataclass records.

A long run books one record per transfer; kept as objects, those
records dominate the garbage collector's tracked set and the process's
memory.  A :class:`Ledger` keeps one column per field instead: the
write path appends the field values and creates no per-record object.
Fields that are always floats live in ``array('d')`` (8 bytes, nothing
kept alive); every other field is a list, so each value comes back as
the very object that was written.  Reads see a sequence of the record
type, each record built when it is accessed.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections.abc import Sequence
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Ledger"]


@lru_cache(maxsize=None)
def _row_writer_factory(names: tuple[str, ...]) -> Callable[..., Callable[..., None]]:
    """``factory(*appends)`` -> ``add(*values)`` appending one value per column.

    Generated once per field list (as ``collections.namedtuple``
    generates its ``__new__``) so a row costs one call with
    straight-line column appends instead of a Python loop over fields.
    """
    appends = [f"_append_{i}" for i in range(len(names))]
    body = "\n".join(f"        {append}({name})" for append, name in zip(appends, names))
    namespace: dict = {}
    exec(
        f"def factory({', '.join(appends)}):\n"
        f"    def add({', '.join(names)}):\n{body}\n"
        "    return add\n",
        namespace,
    )
    return namespace["factory"]


class Ledger(Sequence):
    """Append-only columnar store of ``record_type`` rows.

    ``record_type`` is a dataclass whose fields are all positional
    ``__init__`` arguments; ``floats`` names the fields whose values are
    always ``float`` (stored in ``array('d')``).  ``add(*values)``
    appends one row, field values in declaration order; ``append``
    takes a record.  Reading supports ``len``, iteration, int and slice
    indexing (a slice is a list, as on a list), and comparison with a
    list of records; ``clear()`` empties every column in place.
    """

    __slots__ = ("record_type", "fields", "add", "_columns")

    def __init__(self, record_type: type, floats: Iterable[str] = ()):
        names = tuple(f.name for f in dataclasses.fields(record_type))
        floats = frozenset(floats)
        unknown = floats.difference(names)
        if unknown:
            raise ValueError(f"{record_type.__name__} has no fields {sorted(unknown)}")
        self.record_type = record_type
        self.fields = names
        self._columns = tuple(
            array("d") if name in floats else [] for name in names
        )
        self.add: Callable[..., None] = _row_writer_factory(names)(
            *(column.append for column in self._columns)
        )

    # -- writing -----------------------------------------------------------
    def append(self, record: Any) -> None:
        """Append one record object (its fields are copied into columns)."""
        self.add(*(getattr(record, name) for name in self.fields))

    def clear(self) -> None:
        for column in self._columns:
            del column[:]

    # -- reading -----------------------------------------------------------
    def column(self, name: str) -> Sequence:
        """The live column of field ``name`` (read it; do not write it)."""
        return self._columns[self.fields.index(name)]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Any]:
        return map(self.record_type, *self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = (column[index] for column in self._columns)
            return list(map(self.record_type, *columns))
        return self.record_type(*(column[index] for column in self._columns))

    def __eq__(self, other: object) -> bool:
        # Compares like the list it stands in for.
        if isinstance(other, (Ledger, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # The generated appender cannot be pickled; rebuild it instead.
        floats = tuple(
            name
            for name, column in zip(self.fields, self._columns)
            if isinstance(column, array)
        )
        return _rebuild, (self.record_type, floats, self._columns)

    def __repr__(self) -> str:
        return f"<Ledger of {len(self)} {self.record_type.__name__}>"


def _rebuild(record_type: type, floats: tuple[str, ...], columns: tuple) -> Ledger:
    ledger = Ledger(record_type, floats)
    for mine, theirs in zip(ledger._columns, columns):
        mine.extend(theirs)
    return ledger
