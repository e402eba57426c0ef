//! Textbook RSA signatures over SHA-256 digests.
//!
//! The paper's experiments sign Merkle roots (and, in the baseline signature
//! mesh, every consecutive pair of records) with RSA. What matters for the
//! reproduction is the *cost model*: signing and verification are modular
//! exponentiations that dwarf the cost of a hash operation. This module
//! provides key generation, signing (`digest^d mod n`) and verification
//! (`sig^e mod n == encoded digest`), with a minimal deterministic encoding
//! of the digest into the modulus space.
//!
//! Signing runs through the Chinese Remainder Theorem (RFC 8017 §5.1.2):
//! two half-width exponentiations mod `p` and `q`, recombined by Garner's
//! formula. The result is checked against the public key before it leaves
//! [`RsaKeyPair::sign`], so a fault in either half cannot leak a factor of
//! `n` (the Boneh–DeMillo–Lipton attack); on a mismatch the plain
//! `m^d mod n` of [`RsaKeyPair::sign_plain`] is returned instead. Both
//! paths compute the same integer, so signatures are byte-identical.

use crate::bignum::BigUint;
use crate::prime::generate_prime;
use crate::sha256::{sha256, Digest};
use rand::Rng;
use std::fmt;

/// Public RSA verification key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    pub n: BigUint,
    /// Public exponent (65537 unless the factorisation forces a fallback).
    pub e: BigUint,
}

/// RSA key pair; the private exponent and the CRT parameters stay in this
/// struct, and its `Debug` output shows only the public part.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// Public part.
    pub public: RsaPublicKey,
    /// Private exponent `d = e^{-1} mod (p-1)(q-1)`.
    d: BigUint,
    /// First prime factor of `n`.
    p: BigUint,
    /// Second prime factor of `n`.
    q: BigUint,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q^{-1} mod p`.
    qinv: BigUint,
}

impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// An RSA signature (the raw modular value, big-endian encoded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature {
    /// `encode(digest)^d mod n` as big-endian bytes.
    pub bytes: Vec<u8>,
}

impl RsaSignature {
    /// Size of the signature in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the signature is empty (never produced by [`RsaKeyPair::sign`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Encodes a digest into an integer smaller than `n` by hashing it again and
/// truncating to `n.bits() - 8` bits. Deterministic and collision-resistant
/// enough for the reproduction (a full PKCS#1 encoding is out of scope).
fn encode_digest(digest: &Digest, n: &BigUint) -> BigUint {
    // Expand the digest with counter-mode SHA-256 so the encoding fills the
    // modulus, then reduce below n by truncation.
    let target_bytes = ((n.bits().saturating_sub(8)) / 8).max(16);
    let mut material = Vec::with_capacity(target_bytes);
    let mut counter: u32 = 0;
    while material.len() < target_bytes {
        let mut block = Vec::with_capacity(36);
        block.extend_from_slice(digest);
        block.extend_from_slice(&counter.to_be_bytes());
        material.extend_from_slice(&sha256(&block));
        counter += 1;
    }
    material.truncate(target_bytes);
    BigUint::from_bytes_be(&material).rem(n)
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of roughly `modulus_bits` bits.
    ///
    /// The benchmark and the paper's experiments use 1024 bits; tests use
    /// smaller keys for speed. Panics if `modulus_bits < 64`.
    pub fn generate<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Self {
        assert!(modulus_bits >= 64, "modulus too small");
        let half = modulus_bits / 2;
        loop {
            let p = generate_prime(half, rng);
            let q = generate_prime(modulus_bits - half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let e = BigUint::from_u64(65537);
            let e = if phi.gcd(&e).is_one() {
                e
            } else {
                BigUint::from_u64(3)
            };
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue,
            };
            let qinv = match q.mod_inverse(&p) {
                Some(qinv) => qinv,
                None => continue,
            };
            let dp = d.rem(&p.sub(&BigUint::one()));
            let dq = d.rem(&q.sub(&BigUint::one()));
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
        }
    }

    /// Signs a 32-byte digest via the CRT, checked against the public key.
    pub fn sign(&self, digest: &Digest) -> RsaSignature {
        let m = encode_digest(digest, &self.public.n);
        // Garner: s = m2 + q · (qinv · (m1 - m2) mod p).
        let m1 = m.mod_pow(&self.dp, &self.p);
        let m2 = m.mod_pow(&self.dq, &self.q);
        let h = self.qinv.mul_mod(&m1.sub_mod(&m2, &self.p), &self.p);
        let s = m2.add(&h.mul(&self.q));
        let s = if s.mod_pow(&self.public.e, &self.public.n) == m {
            s
        } else {
            m.mod_pow(&self.d, &self.public.n)
        };
        RsaSignature {
            bytes: s.to_bytes_be(),
        }
    }

    /// Signs a 32-byte digest by the plain full-width `m^d mod n`.
    ///
    /// This is the pre-CRT implementation, kept as the reference
    /// [`RsaKeyPair::sign`] must agree with byte for byte and as its
    /// fallback when the CRT result fails the check.
    pub fn sign_plain(&self, digest: &Digest) -> RsaSignature {
        let m = encode_digest(digest, &self.public.n);
        RsaSignature {
            bytes: m.mod_pow(&self.d, &self.public.n).to_bytes_be(),
        }
    }

    /// Signs an arbitrary message by hashing it first.
    pub fn sign_message(&self, message: &[u8]) -> RsaSignature {
        self.sign(&sha256(message))
    }
}

impl RsaPublicKey {
    /// Verifies a signature over a 32-byte digest.
    pub fn verify(&self, digest: &Digest, signature: &RsaSignature) -> bool {
        let s = BigUint::from_bytes_be(&signature.bytes);
        if s.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let recovered = s.mod_pow(&self.e, &self.n);
        let expected = encode_digest(digest, &self.n);
        recovered == expected
    }

    /// Verifies a signature over an arbitrary message (hashes it first).
    pub fn verify_message(&self, message: &[u8], signature: &RsaSignature) -> bool {
        self.verify(&sha256(message), signature)
    }

    /// Approximate byte size of a signature under this key.
    pub fn signature_size(&self) -> usize {
        self.n.bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(bits, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(256, 1);
        let digest = sha256(b"the root hash of an IFMH tree");
        let sig = kp.sign(&digest);
        assert!(kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let kp = keypair(256, 2);
        let sig = kp.sign(&sha256(b"original"));
        assert!(!kp.public.verify(&sha256(b"tampered"), &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair(256, 3);
        let kp2 = keypair(256, 4);
        let digest = sha256(b"message");
        let sig = kp1.sign(&digest);
        assert!(!kp2.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_bit_flipped_signature() {
        let kp = keypair(256, 5);
        let digest = sha256(b"message");
        let mut sig = kp.sign(&digest);
        sig.bytes[0] ^= 0x01;
        assert!(!kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature_value() {
        let kp = keypair(256, 6);
        let digest = sha256(b"message");
        // A "signature" numerically >= n must be rejected outright.
        let huge = kp.public.n.add(&BigUint::one());
        let sig = RsaSignature {
            bytes: huge.to_bytes_be(),
        };
        assert!(!kp.public.verify(&digest, &sig));
    }

    #[test]
    fn sign_message_hashes_first() {
        let kp = keypair(256, 7);
        let sig = kp.sign_message(b"hello world");
        assert!(kp.public.verify_message(b"hello world", &sig));
        assert!(!kp.public.verify_message(b"hello worlds", &sig));
    }

    #[test]
    fn signature_size_reflects_modulus() {
        let kp = keypair(256, 8);
        assert!(kp.public.signature_size() >= 28 && kp.public.signature_size() <= 34);
        let sig = kp.sign(&sha256(b"x"));
        assert!(sig.len() <= kp.public.signature_size());
        assert!(!sig.is_empty());
    }

    #[test]
    fn crt_signing_equals_plain_signing_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(0xc27);
        for (bits, seed) in [(128, 10), (128, 11), (256, 12), (256, 13), (512, 14)] {
            let kp = keypair(bits, seed);
            for _ in 0..8 {
                let digest = sha256(&rng.gen::<u64>().to_le_bytes());
                let sig = kp.sign(&digest);
                assert_eq!(sig, kp.sign_plain(&digest), "bits={bits} seed={seed}");
                assert!(kp.public.verify(&digest, &sig));
            }
        }
    }

    #[test]
    fn faulty_crt_half_falls_back_to_the_plain_signature() {
        // A fault in one CRT half yields s ≡ m^d (mod q) but not (mod p);
        // released, gcd(s^e - m, n) would reveal q. The check must catch it.
        let good = keypair(256, 15);
        let mut faulty = good.clone();
        faulty.dp = faulty.dp.add(&BigUint::one());
        let digest = sha256(b"fault injection");
        let sig = faulty.sign(&digest);
        assert_eq!(sig, good.sign_plain(&digest));
        assert!(good.public.verify(&digest, &sig));
    }

    #[test]
    fn debug_prints_only_the_public_key() {
        let kp = keypair(256, 16);
        let shown = format!("{kp:?}");
        assert!(shown.contains(&kp.public.n.to_hex()));
        for secret in [&kp.d, &kp.p, &kp.q, &kp.dp, &kp.dq, &kp.qinv] {
            assert!(!shown.contains(&secret.to_hex()), "{shown}");
        }
    }

    #[test]
    fn deterministic_signing() {
        let kp = keypair(256, 9);
        let d = sha256(b"same input");
        assert_eq!(kp.sign(&d), kp.sign(&d));
    }
}
