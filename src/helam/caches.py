"""Every cache of the package, registered where it is defined, with how to
empty it and what it counts: `clear()` empties them all and `counts()`
reads them all.  A count is what the cache knows anyway (an lru's
`cache_info()`, a table's size), so no lookup pays for counting.  A cache
registered with no clear function is counted and never emptied: party
sets are equal only when they are one object, so emptying their table
would break equality."""

from typing import Callable, Optional

_caches: dict = {}  # name -> (clear function or None, counts function)


def register(name: str, clear: Optional[Callable[[], object]],
             counts: Callable[[], dict[str, int]]) -> None:
    _caches[name] = (clear, counts)


def clear() -> None:
    for empty, _ in _caches.values():
        if empty is not None:
            empty()


def counts() -> dict[str, dict[str, int]]:
    """Each cache's counts by name: `currsize` always, `maxsize` where the
    cache is bounded, and `hits` and `misses` where it keeps them."""
    return {name: count() for name, (_, count) in _caches.items()}
