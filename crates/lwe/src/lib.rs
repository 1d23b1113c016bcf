//! SimplePIR-style linearly homomorphic encryption with preprocessing.
//!
//! This crate implements the inner encryption layer of Tiptoe (paper
//! §6.1, Appendix A): secret-key Regev encryption over a power-of-two
//! modulus `q ∈ {2^32, 2^64}`, where the server preprocesses the public
//! linear function `M` into a *hint* `H = M·A` so that the per-query
//! homomorphic matrix-vector product costs only `2·ℓ·m` word
//! operations — essentially the cost of the plaintext product.
//!
//! The scheme's algorithms follow Appendix A.1 of the paper:
//!
//! - [`LweSecretKey`]: ternary secret `s ∈ {-1,0,1}^n`.
//! - [`scheme::encrypt`]: `c = A·s + e + Δ·v` with `Δ = ⌊q/p⌋`.
//! - [`scheme::preproc`]: `hint = M·A` (client-independent).
//! - [`scheme::apply_many`]: `c' = M·c` for a batch of ciphertexts in
//!   one database pass (the 2·ℓ·m hot loop; [`scheme::apply`] is its
//!   one-ciphertext form).
//! - [`scheme::decrypt`]: `round_p(c' - H·s)` recovers `M·v mod p`.
//!
//! Parameter selection ([`params`]) reproduces Tables 11 and 12 of the
//! paper's Appendix C, and [`security`] re-derives the 128-bit claims
//! with a core-SVP primal-attack estimator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix_a;
pub mod params;
pub mod scheme;
pub mod security;

pub use matrix_a::MatrixA;
pub use params::LweParams;
pub use scheme::{LweCiphertext, LweSecretKey};
