"""The partial restriction operator on types and values.

Restricting to a party set narrows the owners of data, is the identity on
functions and keywords whose participants are all present, and is undefined
otherwise.  Undefined is an ordinary outcome (None), not an error: the type
checker and substitution branch on it.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    ChorType, ChorValue, Com, DataTy, Fst, FunTy, Inl, Inr, Lam, Lookup,
    Pair, PartySet, Snd, TupleTy, Unit, Var, Vec,
)


def mask_type(t: ChorType, theta: PartySet) -> Optional[ChorType]:
    match t:
        case DataTy():
            inter = t.owners.intersect(theta)
            return DataTy(t.shape, inter) if inter is not None else None
        case FunTy():
            return t if t.owners.issubset(theta) else None
        case TupleTy():
            masked = []
            for elem in t.elems:
                m = mask_type(elem, theta)
                if m is None:
                    return None
                masked.append(m)
            return TupleTy(tuple(masked))
    raise TypeError(f"not a type: {t!r}")


def mask_value(v: ChorValue, theta: PartySet) -> Optional[ChorValue]:
    match v:
        case Var():
            return v
        case Unit():
            inter = v.owners.intersect(theta)
            return Unit(inter) if inter is not None else None
        case Lam() | Fst() | Snd() | Lookup():
            return v if v.owners.issubset(theta) else None
        case Com():
            ok = v.sender in theta and v.recipients.issubset(theta)
            return v if ok else None
        case Inl():
            m = mask_value(v.value, theta)
            return Inl(m) if m is not None else None
        case Inr():
            m = mask_value(v.value, theta)
            return Inr(m) if m is not None else None
        case Pair():
            ma = mask_value(v.first, theta)
            mb = mask_value(v.second, theta)
            if ma is None or mb is None:
                return None
            return Pair(ma, mb)
        case Vec():
            out = []
            for elem in v.elems:
                m = mask_value(elem, theta)
                if m is None:
                    return None
                out.append(m)
            return Vec(tuple(out))
    raise TypeError(f"not a value: {v!r}")


def is_noop(t: ChorType, theta: PartySet) -> bool:
    """True when restricting t to theta leaves it unchanged."""
    return mask_type(t, theta) == t
