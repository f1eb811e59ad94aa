"""Residues mod p^N as the working representation of p-adic integers.

``PadicApprox`` is a validated record (p, N, residue) with no arithmetic:
the Hensel lift in ``weierstrass`` computes on plain integer residues.
"""

from dataclasses import dataclass

from .errors import BadInput
from .numbers import is_prime


@dataclass(frozen=True)
class PadicApprox:
    """An element of Z_p known to precision N, stored as its canonical residue."""

    p: int
    N: int
    residue: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise BadInput(f"{self.p} is not prime")
        if self.N < 1:
            raise BadInput("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.p ** self.N)

    @property
    def modulus(self) -> int:
        return self.p ** self.N

    def __repr__(self):
        return f"PadicApprox({self.residue} mod {self.p}^{self.N})"
