"""Cryptographic substrate for the Secure Join reproduction.

This package implements, from scratch, every cryptographic building block
the paper depends on:

- modular/number-theoretic primitives (:mod:`repro.crypto.numtheory`),
- the BN254 extension-field tower (:mod:`repro.crypto.field`),
- the BN254 groups G1/G2 (:mod:`repro.crypto.curve`),
- the optimal-ate pairing: the kernel every backend call runs
  (:mod:`repro.crypto.pairing_fast`) and the textbook reference that
  the tests and the multi-pairing ablation compare it with
  (:mod:`repro.crypto.pairing`),
- a backend abstraction exposing one bilinear-group API with a real
  (BN254) and an insecure-fast implementation
  (:mod:`repro.crypto.backend`),
- matrices over Z_q (:mod:`repro.crypto.matrix`),
- hashing/PRF utilities (:mod:`repro.crypto.hashing`), and
- the function-hiding inner-product encryption of Kim et al. with the
  paper's modifications (:mod:`repro.crypto.ipe`).
"""

from repro.crypto.backend import (
    BilinearBackend,
    BN254Backend,
    FastBackend,
    GTElement,
    get_backend,
)
from repro.crypto.ipe import (
    IPECiphertext,
    IPEMasterKey,
    IPEScheme,
    IPESecretKey,
    ModifiedIPEScheme,
)
from repro.crypto.matrix import ZqMatrix, inner_product

__all__ = [
    "BilinearBackend",
    "BN254Backend",
    "FastBackend",
    "GTElement",
    "get_backend",
    "IPECiphertext",
    "IPEMasterKey",
    "IPEScheme",
    "IPESecretKey",
    "ModifiedIPEScheme",
    "ZqMatrix",
    "inner_product",
]
