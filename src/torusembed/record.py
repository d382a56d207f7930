"""Plain value records, compared and hashed by their fields."""


class Record:
    """Base of the value records.  A record equals a record of the same class
    whose fields are equal, and hashes as the tuple of its fields in the order
    ``__init__`` sets them.  Its fields are its instance ``__dict__``, so a
    record keeps no other state there."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))
