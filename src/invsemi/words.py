"""Reduced words in a free group, as tuples of (letter, sign) pairs.

Letters are hashable labels, signs are +1/-1, and every function returns a
fully reduced word (no adjacent x x^-1) from reduced words; free_reduce
reduces anything else. The empty tuple is the identity.
"""

from __future__ import annotations

from .errors import InputError


def free_reduce(letters) -> tuple:
    stack = []
    for item in letters:
        x, s = item
        if s not in (1, -1):
            raise InputError(f"word sign must be +1 or -1, got {s!r}")
        if stack and stack[-1][0] == x and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((x, s))
    return tuple(stack)


def word_mul(u, v) -> tuple:
    """The product of reduced words: only the end of u and the start of v
    can cancel."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[-1 - k] == (v[k][0], -v[k][1]):
        k += 1
    return tuple(u[:len(u) - k]) + tuple(v[k:])


def word_inv(u) -> tuple:
    return tuple((x, -s) for x, s in reversed(tuple(u)))


def word_to_json(w):
    return [[x, s] for x, s in w]


def word_from_json(data) -> tuple:
    """The reduced word of [letter, sign] pairs, as the `s` and `t` payload
    schemas of `jsonio` admit them."""
    return free_reduce((x, int(s)) for x, s in data)
