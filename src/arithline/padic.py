"""Residues mod p^N as the working representation of p-adic integers."""

from dataclasses import dataclass
from fractions import Fraction

from .numbers import invmod, is_prime, vp_int


@dataclass(frozen=True)
class PadicApprox:
    """An element of Z_p known to precision N, stored as its canonical residue."""

    p: int
    N: int
    residue: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.N < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.p ** self.N)

    @property
    def modulus(self) -> int:
        return self.p ** self.N

    @classmethod
    def from_rational(cls, q, p: int, N: int) -> "PadicApprox":
        q = Fraction(q)
        if q.denominator % p == 0:
            raise ValueError(f"{q} is not {p}-integral")
        m = p ** N
        return cls(p, N, q.numerator * invmod(q.denominator, m) % m)

    def __add__(self, other):
        other = self._match(other)
        return PadicApprox(self.p, self.N, self.residue + other.residue)

    def __sub__(self, other):
        other = self._match(other)
        return PadicApprox(self.p, self.N, self.residue - other.residue)

    def __mul__(self, other):
        other = self._match(other)
        return PadicApprox(self.p, self.N, self.residue * other.residue)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        return PadicApprox(self.p, self.N, pow(self.residue, e, self.modulus))

    def inverse(self) -> "PadicApprox":
        return PadicApprox(self.p, self.N, invmod(self.residue, self.modulus))

    def valuation(self):
        """v_p of the residue; N when the residue is 0 (a lower bound)."""
        if self.residue == 0:
            return self.N
        return vp_int(self.residue, self.p)

    def _match(self, other) -> "PadicApprox":
        if isinstance(other, PadicApprox):
            if other.p != self.p or other.N != self.N:
                raise ValueError("mixed p-adic contexts")
            return other
        return PadicApprox.from_rational(other, self.p, self.N)

    def __repr__(self):
        return f"PadicApprox({self.residue} mod {self.p}^{self.N})"
