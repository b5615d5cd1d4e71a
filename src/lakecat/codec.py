"""The one codec of every persisted record: hypernodes, links, groupings
and log events. It imports nothing from lakecat. A record's format, and
its `check`, are derived once per type from its dataclass's annotations:

- str, int, float, bool, a bare dict: as is, of that type, where an int
  is a float and a bool is neither; Optional[X]: null or X;
- datetime: an ISO string;
- Any, an attribute value: as is, unchecked, but a datetime becomes {"__ts__": ISO};
- list, tuple: a list; set, frozenset: a sorted list; of checked
  elements, and two of them for a tuple[X, X];
- dict of records with an `id`: the records as a list sorted by id;
- other dict[str, X]: a dict with the same keys, of checked values;
- frozen dataclass, a value such as Tag: the list of its fields, or fewer;
- other dataclass: a dict of its fields, keys renamed by RENAMED.
Any other type raises TypeError. `decode_field` decodes one field alone.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import reprlib
import typing
from datetime import datetime

# field name -> record key, where the two differ
RENAMED = {"from_node": "from", "to_node": "to", "metric_name": "metric"}


def encode(obj) -> dict:
    """The JSON record of a persisted value."""
    return _codec(type(obj))[0](obj)


def decode(cls, d: dict):
    """The `cls` value of a record that `encode` wrote or `check` passed.
    A missing key takes its field's default; without one, TypeError."""
    return _codec(cls)[1](d)


def decode_field(cls, record: dict, name: str):
    """The `name` field of `decode(cls, record)`, decoding that field alone;
    a missing key gives its default. A `__post_init__` of `cls` is not run."""
    key, dec, default = _field(cls, name)
    return dec(record[key]) if key in record else default()


def check(cls, record):
    """`record`, if it has the form of a `cls` value by the rules above;
    else TypeError, naming the key whose value has the wrong type."""
    _codec(cls)[2](record)
    return record


def _encode_any(v):
    return {"__ts__": v.isoformat()} if isinstance(v, datetime) else v


def _decode_any(v):
    if isinstance(v, dict) and set(v) == {"__ts__"}:
        return datetime.fromisoformat(v["__ts__"])
    return _copy_json(v) if isinstance(v, (dict, list)) else v


def _copy_json(v):
    """A JSON value with its lists and dicts copied at every depth, so
    the decoded value shares no container with the record. It walks with
    its own stack: each copied container's containers are copied in turn."""
    copy = list(v) if isinstance(v, list) else dict(v)
    stack = [copy]
    while stack:
        container = stack.pop()
        for key, x in enumerate(container) if isinstance(container, list) else container.items():
            if isinstance(x, (list, dict)):
                container[key] = x = list(x) if isinstance(x, list) else dict(x)
                stack.append(x)
    return copy


def _is(types, each=None, length=0):
    """The check of a value of one of `types` (a bool is no int), of
    `length` elements unless 0, each element or dict value passing `each`."""
    def check_value(v):
        if type(v) not in types or length and len(v) != length:
            raise TypeError(f"{reprlib.repr(v)} is not a {types[0].__name__}"
                            + (f" of {length}" if length else ""))
        if each is not None:
            for x in v.values() if type(v) is dict else v:
                each(x)
    return check_value


@functools.cache
def _codec(tp):
    """(encode, decode, check) for values of the annotation `tp`, derived
    once per type; None to store a value as is, or to take any value."""
    if tp in (str, int, float, bool, dict):
        return None, None, _is((float, int) if tp is float else (tp,))
    if tp is datetime:
        return datetime.isoformat, datetime.fromisoformat, _is((str,))
    if tp is typing.Any:
        return _encode_any, _decode_any, None
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):
        enc, dec, check_value = _codec(args[0])
        return (enc and (lambda v: None if v is None else enc(v)),
                dec and (lambda v: None if v is None else dec(v)),
                lambda v: v is None or check_value(v))
    # one element type: list[X], set[X], tuple[X, X], tuple[X, ...] or none given
    if origin in (list, tuple, set, frozenset) and len(set(args) - {Ellipsis}) <= 1:
        enc, dec, check_value = _codec(args[0]) if args else (None, None, None)
        as_list = sorted if origin in (set, frozenset) else list
        length = len(args) if origin is tuple and Ellipsis not in args else 0
        return (as_list if enc is None else lambda v: as_list(map(enc, v)),
                lambda v: origin(v if dec is None else map(dec, v)),
                _is((list,), check_value, length))
    if origin is dict and args[:1] == (str,):
        enc, dec, check_value = _codec(args[1])
        if "id" in getattr(args[1], "__dataclass_fields__", ()):
            by_id = operator.attrgetter("id")
            return (lambda v: [enc(r) for r in sorted(v.values(), key=by_id)],
                    lambda v: {r.id: r for r in map(dec, v)}, _is((list,), check_value))
        return (dict if enc is None else lambda v: {k: enc(x) for k, x in v.items()},
                dict if dec is None else lambda v: {k: dec(x) for k, x in v.items()},
                _is((dict,), check_value))
    raise TypeError(f"no codec for {tp!r}")


@functools.cache
def _field(cls, name):
    """(record key, decoder, default factory) of the field `name` of `cls`."""
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    dec = _codec(typing.get_type_hints(cls)[name])[1]  # the one `decode` uses
    return (RENAMED.get(name, name), dec or (lambda v: v),
            f.default_factory if f.default is dataclasses.MISSING else lambda: f.default)


def _record_codec(cls):
    hints = typing.get_type_hints(cls)
    fields = [(f.name, RENAMED.get(f.name, f.name), *_codec(hints[f.name]))
              for f in dataclasses.fields(cls)]
    keys = [key for _, key, *_ in fields]
    frozen = cls.__dataclass_params__.frozen

    def check_record(v):
        if frozen and type(v) is list and len(v) <= len(keys):
            v = dict(zip(keys, v))
        elif frozen or type(v) is not dict:
            raise TypeError(f"{reprlib.repr(v)} is not a {cls.__name__}")
        try:
            for _, key, _, _, check_value in fields:
                if check_value is not None and key in v:
                    check_value(v[key])
        except TypeError as exc:
            raise TypeError(f"{key}: {exc}") from None
    if frozen:
        names = [name for name, *_ in fields]
        return (lambda obj: [getattr(obj, name) for name in names], lambda v: cls(*v),
                check_record)
    return (lambda obj: {key: getattr(obj, name) if enc is None else enc(getattr(obj, name))
                         for name, key, enc, _, _ in fields},
            lambda d: cls(**{name: d[key] if dec is None else dec(d[key])
                             for name, key, _, dec, _ in fields if key in d}),
            check_record)
