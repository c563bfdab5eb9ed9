"""Compact JSON text for the query answers, written straight from the objects.

``FlowInfoResult``, ``RemosGraph`` and ``NodeAnswer`` each write their
``to_json()`` with one :class:`JSONWriter`.  The text equals, byte for
byte, ``json.dumps(x.to_dict(), separators=(",", ":"))`` with every
non-finite float written as ``null`` (``repro.service.app._finite``),
so a reader cannot tell the writer from the dump.  What the writer saves is the
formatting: ``float.__repr__`` is most of a dump's cost, and an answer
repeats its numbers (max-min fair shares are equal; one price is folded
into many edges), so a writer formats each distinct float once and each
:class:`~repro.stats.StatMeasure` object once.

Scalars are written as the C encoder writes them: strings through
``encode_basestring_ascii``, ints through ``int.__repr__``, floats through
``float.__repr__``, dispatched on type so a float is never printed as an
int and a bool never as a number.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as string

__all__ = ["JSONWriter", "string"]


class _Floats(dict):
    """float -> JSON text, filled on first use.

    ``0.0`` and ``-0.0`` are one dict key with two spellings, so zeros are
    formatted every time; NaN never equals a key, so it is never kept.
    """

    def __missing__(self, value: float) -> str:
        text = float.__repr__(value) if math.isfinite(value) else "null"
        if value and value == value:
            self[value] = text
        return text


class JSONWriter:
    """The per-body memo: one text per distinct float, measure and key."""

    __slots__ = ("_floats", "_measures", "_texts")

    def __init__(self) -> None:
        self._floats = _Floats()
        self._measures: dict[int, str] = {}
        self._texts: dict[int, str] = {}

    def value(self, value) -> str:
        """One JSON scalar (a non-finite float is ``null``)."""
        kind = type(value)
        if kind is float:
            return self._floats[value]
        if kind is str:
            return string(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, str):
            return string(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return self._floats[value]
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def text(self, obj) -> str:
        """``str(obj)`` as a JSON string, written once per object (by
        identity, as :meth:`measure`): answers share their bottleneck keys."""
        text = self._texts.get(id(obj))
        if text is None:
            text = self._texts[id(obj)] = string(str(obj))
        return text

    def measure(self, measure) -> str:
        """``StatMeasure.to_dict()`` as JSON, written once per measure object.

        Keyed by identity: the answer being written holds every object it
        names alive, so no id is reused while the writer is.
        """
        text = self._measures.get(id(measure))
        if text is None:
            v = self.value
            text = self._measures[id(measure)] = (
                f'{{"min":{v(measure.minimum)},"q1":{v(measure.q1)},'
                f'"median":{v(measure.median)},"q3":{v(measure.q3)},'
                f'"max":{v(measure.maximum)},"mean":{v(measure.mean)},'
                f'"n_samples":{v(measure.n_samples)},"accuracy":{v(measure.accuracy)}}}'
            )
        return text
