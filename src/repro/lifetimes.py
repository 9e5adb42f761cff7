"""Back-references that do not keep their owner alive.

An iteration's object graph is a tree: the ``MLGServer`` owns its world,
engines, game loop and chunk lifecycle, and the caller owns the server.
A part that must call back up the tree holds its owner weakly, so the
whole graph is freed by reference counting the moment its last outside
reference goes, not at some later cyclic collection.  A call through a
back-reference whose owner is already gone raises :class:`OwnerGone`.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

__all__ = ["OwnerGone", "weak_method"]


class OwnerGone(ReferenceError):
    """A weak back-reference was used after the object it names was freed."""


def weak_method(method: Callable) -> Callable:
    """``method``, a bound method, without a strong reference to its object.

    The returned callable forwards its arguments to ``method`` while the
    object lives, and raises :class:`OwnerGone` once it is freed.
    """
    ref = weakref.WeakMethod(method)
    name = method.__qualname__

    def call(*args, **kwargs):
        bound = ref()
        if bound is None:
            raise OwnerGone(f"{name} was called after its object was freed")
        return bound(*args, **kwargs)

    return call
