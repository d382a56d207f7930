"""Places of the rationals: the real place and one place per prime."""

from __future__ import annotations


class Place:
    """A place of Q.  ``p`` is the prime for a finite place, None for the real one."""

    def __init__(self, p: int | None) -> None:
        self.p = p
        self.is_infinite = p is None

    def __eq__(self, other):
        if type(other) is not Place:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((self.p,))

    def sort_key(self) -> tuple[int, int]:
        # Finite places ascending, the real place last.
        return (1, 0) if self.p is None else (0, self.p)

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)

    def __repr__(self) -> str:
        return f"Place({self})"


INFINITY = Place(None)
TWO = Place(2)


def sorted_places(places) -> list[Place]:
    return sorted(places, key=Place.sort_key)
