"""Read-only value records with an explicit ``__init__``.

A record is a value whose constructor checks or derives state:
`Universe`, `Partition`, `CayleyTable`, `ApproxSpace`, `FiniteTopology`,
`FiniteMap`, `RoughSpace`, `RoughAction` and `VerificationReport`; a
value that only holds its fields is a named tuple (`Clause`,
`RoughGroupCert`, `RoughHom`, `TRGCert`, `TRGHom`), and the mutable
`parser.Workspace` is a plain class.  A subclass names its fields in
``_fields`` and stores them, together with any derived private state,
through ``_set``.  It then compares and hashes by those fields (only
against its own class), and assigning or deleting an attribute raises
AttributeError.  There is no copy with changed fields: a record is built
through ``__init__``, so its validation, normalisation and derived state
always hold, except in `topology.Topologies`, which builds each
enumerated topology, a preorder by construction, through ``__new__`` and
one ``_set`` with its opens (0.51 s for all 209527 six-point ones,
0.67 s through the constructor).
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
