"""Labelled trees written out as s-expressions or as JSON arrays.

Parse trees and grammar derivations print through :func:`render_tree`, in
either format, each tree type saying only what a node's labels and
children are.  The walk keeps its pending nodes on an explicit stack, so
how deep a printable tree may be is bounded by memory, not by
``sys.getrecursionlimit()``.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Any, Callable, Sequence, Union

__all__ = ["render_tree"]

#: A node is either a bare label, or labels followed by child nodes.
Shape = Union[str, tuple[tuple[object, ...], Sequence[Any]]]

# Stands on the work stack for the closing bracket of an open node.
_CLOSE = object()


def render_tree(root: Any, shape: Callable[[Any], Shape], as_json: bool = False) -> str:
    """Write ``root`` out, asking ``shape`` for each node's labels and children.

    A node shaped as a bare string is written as that label alone.  Any
    other node is written as its labels and then its children, in
    parentheses and separated by spaces (``(pair unit (char a))``), or with
    ``as_json`` as a compact JSON array (``["pair","unit",["char","a"]]``).
    """
    label: Callable[[object], str] = json.dumps if as_json else str
    opening, separator, closing = ("[", ",", "]") if as_json else ("(", " ", ")")
    close = (_CLOSE, closing)
    # A tree has few distinct label tuples, so each is written once.
    heads: dict[object, str] = {}
    out: list[str] = []
    todo: list[tuple[object, str]] = [(root, "")]
    while todo:
        node, before = todo.pop()
        if node is _CLOSE:
            out.append(before)
            continue
        node_shape = shape(node)
        if isinstance(node_shape, str):
            head = heads.get(node_shape)
            if head is None:
                head = heads[node_shape] = label(node_shape)
            out.append(before + head)
            continue
        labels, children = node_shape
        head = heads.get(labels)
        if head is None:
            head = heads[labels] = opening + separator.join(map(label, labels))
        if not children:
            out.append(before + head + closing)
            continue
        out.append(before + head)
        todo.append(close)
        todo.extend(zip(reversed(children), repeat(separator)))
    return "".join(out)
