"""Seeded random generation of exact scalars, vectors and matrices.

Sampling uses small-height rationals (numerators and denominators bounded by
10 unless stated otherwise) so exact arithmetic stays fast, and every sampler
is driven by an explicit ``random.Random`` seed for reproducibility.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import determinant, identity_matrix
from .scalars import GaussianRational

__all__ = ["ExactRandom", "DEFAULT_HEIGHT"]

DEFAULT_HEIGHT = 10


class ExactRandom:
    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def rational(self, height=DEFAULT_HEIGHT) -> Fraction:
        return Fraction(self.rng.randint(-height, height), self.rng.randint(1, height))

    def gaussian(self, height=DEFAULT_HEIGHT, imaginary=True) -> GaussianRational:
        re = self.rational(height)
        im = self.rational(height) if imaginary and self.rng.random() < 0.5 else 0
        return GaussianRational(re, im)

    def nonzero_gaussian(self, height=DEFAULT_HEIGHT, imaginary=True) -> GaussianRational:
        while True:
            z = self.gaussian(height, imaginary)
            if z:
                return z

    def vector(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        return [self.gaussian(height, imaginary) for _ in range(n)]

    def matrix(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        return [self.vector(n, height, imaginary) for _ in range(n)]

    def invertible(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        while True:
            m = self.matrix(n, height, imaginary)
            if determinant(m) != 0:
                return m

    def unimodularish(self, n, steps=6):
        """Product of elementary matrices with unit determinant factors.

        Entries stay tiny, which keeps basis-changed tensors cheap to handle
        while still exercising genuinely non-diagonal transformations.
        """
        m = identity_matrix(n)
        units = [GaussianRational(1), GaussianRational(-1),
                 GaussianRational(0, 1), GaussianRational(0, -1)]
        for _ in range(steps):
            kind = self.rng.randrange(3)
            if kind == 0:  # row swap
                i, j = self.rng.sample(range(n), 2) if n > 1 else (0, 0)
                m[i], m[j] = m[j], m[i]
            elif kind == 1:  # unit scaling
                i = self.rng.randrange(n)
                u = self.rng.choice(units)
                m[i] = [u * x for x in m[i]]
            else:  # shear
                if n < 2:
                    continue
                i, j = self.rng.sample(range(n), 2)
                f = GaussianRational(self.rng.randint(-2, 2), self.rng.choice((0, 0, 1)))
                m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        if determinant(m) == 0:  # cannot happen; defensive
            return identity_matrix(n)
        return m

    def cocycle(self, space, height=3):
        """Random element of a cochain space with small integer coordinates."""
        from .cohomology import Cocycle

        ambient = space.ambient
        total = None
        for basis_elem in space.basis:
            coeff = GaussianRational(self.rng.randint(-height, height))
            term = coeff * basis_elem
            total = term if total is None else total + term
        if total is None:
            return Cocycle(ambient, {})
        return total

    def functional(self, n, height=3):
        return [GaussianRational(self.rng.randint(-height, height)) for _ in range(n)]
