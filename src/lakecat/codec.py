"""The one codec of every persisted record: hypernodes, links, groupings
and log events. It imports nothing from lakecat. A record's format is
derived once per type from its dataclass's field annotations:

- str, int, float, bool, a bare dict: as is; Optional[X]: null or X;
- datetime: an ISO string;
- Any, an attribute value: as is, but a datetime becomes {"__ts__": ISO};
- list, tuple: a list; set, frozenset: a sorted list; a non-list raises TypeError;
- dict of records with an `id`: the records as a list sorted by id;
- other dict[str, X]: a dict with the same keys; a non-dict raises TypeError;
- frozen dataclass, a value such as Tag: the list of its fields;
- other dataclass: a dict of its fields, keys renamed by RENAMED.
Any other type raises TypeError.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from datetime import datetime

# field name -> record key, where the two differ
RENAMED = {"from_node": "from", "to_node": "to", "metric_name": "metric"}


def encode(obj) -> dict:
    """The JSON record of a persisted value."""
    return _codec(type(obj))[0](obj)


def decode(cls, d: dict):
    """The `cls` value of a record that `encode` wrote. A missing key
    takes its field's default; without one, it raises TypeError."""
    return _codec(cls)[1](d)


def _encode_any(v):
    return {"__ts__": v.isoformat()} if isinstance(v, datetime) else v


def _decode_any(v):
    if isinstance(v, dict) and set(v) == {"__ts__"}:
        return datetime.fromisoformat(v["__ts__"])
    return _copy_json(v) if isinstance(v, (dict, list)) else v


def _copy_json(v):
    """A JSON value with its lists and dicts copied at every depth, so
    the decoded value shares no container with the record."""
    if isinstance(v, list):
        return [_copy_json(x) for x in v]
    if isinstance(v, dict):
        return {k: _copy_json(x) for k, x in v.items()}
    return v


@functools.cache
def _codec(tp):
    """(encode, decode) functions for values of the annotation `tp`,
    derived once per type; (None, None) for a value stored as is."""
    if tp in (str, int, float, bool, dict):
        return None, None
    if tp is datetime:
        return datetime.isoformat, datetime.fromisoformat
    if tp is typing.Any:
        return _encode_any, _decode_any
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):
        enc, dec = _codec(args[0])
        if enc is None:
            return None, None
        return (lambda v: None if v is None else enc(v),
                lambda v: None if v is None else dec(v))
    # one element type: list[X], set[X], tuple[X, X], tuple[X, ...] or none given
    if origin in (list, tuple, set, frozenset) and len(set(args) - {Ellipsis}) <= 1:
        enc, dec = _codec(args[0]) if args else (None, None)
        as_list = sorted if origin in (set, frozenset) else list

        def decode_seq(v):
            # else a string or an object decodes as its characters or keys
            if type(v) is not list:
                raise TypeError(f"{v!r} is not a JSON array")
            return origin(v if dec is None else map(dec, v))
        return (as_list if enc is None else lambda v: as_list(map(enc, v))), decode_seq
    if origin is dict and args[:1] == (str,):
        enc, dec = _codec(args[1])
        if "id" in getattr(args[1], "__dataclass_fields__", ()):
            by_id = operator.attrgetter("id")
            return (lambda v: [enc(r) for r in sorted(v.values(), key=by_id)],
                    lambda v: {r.id: r for r in map(dec, v)})

        def decode_dict(v):
            if not isinstance(v, dict):
                raise TypeError(f"{v!r} is not a JSON object")
            return {k: dec(x) for k, x in v.items()}
        return lambda v: {k: enc(x) for k, x in v.items()}, decode_dict
    raise TypeError(f"no codec for {tp!r}")


def _record_codec(cls):
    hints = typing.get_type_hints(cls)
    fields = [(f.name, RENAMED.get(f.name, f.name), *_codec(hints[f.name]))
              for f in dataclasses.fields(cls)]
    if cls.__dataclass_params__.frozen:
        names = [name for name, *_ in fields]
        return lambda obj: [getattr(obj, name) for name in names], lambda v: cls(*v)
    return (lambda obj: {key: getattr(obj, name) if enc is None else enc(getattr(obj, name))
                         for name, key, enc, _ in fields},
            lambda d: cls(**{name: d[key] if dec is None else dec(d[key])
                             for name, key, _, dec in fields if key in d}))
