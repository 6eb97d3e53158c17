"""Error types and overflow-checked 64-bit integer arithmetic."""

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class InputError(ValueError):
    """Malformed input: bad indices, bad document, bad configuration."""


class CapacityError(RuntimeError):
    """Instance exceeds a deliberate size guard (brute-force oracles, generators,
    document headers)."""


class EulerOverflowError(ArithmeticError):
    """An Euler-characteristic value left the signed 64-bit range."""


def _check(r):
    if r < INT64_MIN or r > INT64_MAX:
        raise EulerOverflowError(f"value {r} outside signed 64-bit range")
    return r


def checked_add(a, b):
    return _check(a + b)


def checked_sub(a, b):
    return _check(a - b)


def checked_mul(a, b):
    return _check(a * b)
