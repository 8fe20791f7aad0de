"""Exact scalar arithmetic in mu_M (M-th roots of unity) plus an absorbing zero."""

from __future__ import annotations

from typing import Optional

from .records import Record


class UnitScalar(Record):
    """zeta_M^exponent, or zero when exponent is None.

    Exponents are kept reduced mod M; equality is exact integer comparison,
    so there is no floating point anywhere.
    """

    modulus: int
    exponent: Optional[int]

    def __init__(self, modulus: int, exponent: Optional[int]):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponent", None if exponent is None else exponent % modulus)

    @classmethod
    def root(cls, modulus: int, exponent: int) -> "UnitScalar":
        return cls(modulus, exponent)

    @classmethod
    def one(cls, modulus: int) -> "UnitScalar":
        return cls(modulus, 0)

    @classmethod
    def zero(cls, modulus: int) -> "UnitScalar":
        return cls(modulus, None)

    @property
    def kind(self) -> str:
        return "zero" if self.exponent is None else "root"

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def _check(self, other: "UnitScalar") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __mul__(self, other: "UnitScalar") -> "UnitScalar":
        self._check(other)
        if self.is_zero or other.is_zero:
            return UnitScalar.zero(self.modulus)
        return UnitScalar(self.modulus, self.exponent + other.exponent)

    def inverse(self) -> "UnitScalar":
        if self.is_zero:
            raise ZeroDivisionError("zero scalar has no inverse")
        return UnitScalar(self.modulus, -self.exponent)

    def __pow__(self, n: int) -> "UnitScalar":
        if self.is_zero:
            if n == 0:
                raise ValueError("0**0 is undefined here")
            if n < 0:
                raise ZeroDivisionError("zero scalar has no inverse")
            return self
        return UnitScalar(self.modulus, self.exponent * n)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"0(mod {self.modulus})"
        return f"zeta{self.modulus}^{self.exponent}"
