//! Old-vs-new microbenchmarks for the hot-path crypto rework.
//!
//! Each row times the superseded implementation against the shipped fast
//! path over identical inputs:
//!
//! * `mod_pow` — schoolbook square-and-multiply ([`BigUint::mod_pow_legacy`])
//!   vs the Montgomery-form dispatch ([`BigUint::mod_pow`], which builds a
//!   [`MontgomeryContext`] per call exactly as the RSA/DSA paths do).
//! * `dsa_sign` — fresh per-signature nonce exponentiation vs pooled
//!   signing from precomputed `(r, k⁻¹)` pairs (the pool is replenished
//!   off the timed path, as the signer does between requests).
//! * `dsa_verify` — the textbook two-exponentiation verify rebuilt on the
//!   legacy `mod_pow` vs [`DsaPublicKey::verify`] with its cached
//!   fixed-base tables.
//! * `sha256_pair` — hashing two digests through a concatenation buffer
//!   (what the deleted `sha256_concat` did) vs the block-batched
//!   [`sha256_pair`].
//! * `div_rem` — a 2048-by-1024-bit division, bit at a time
//!   ([`BigUint::div_rem_bitwise`]) vs Knuth's Algorithm D
//!   ([`BigUint::div_rem`]).
//! * `rsa_sign` — the full-width `m^d mod n` ([`RsaKeyPair::sign_plain`])
//!   vs CRT signing with its public-key check ([`RsaKeyPair::sign`]).
//!
//! The rows land in the `crypto_microbench` section of the `bench_report`
//! artifact.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use vaq_crypto::sha256::{sha256, sha256_pair, Digest};
use vaq_crypto::sign_pool::DsaSigningPool;
use vaq_crypto::{BigUint, DsaKeyPair, DsaPublicKey, DsaSignature, RsaKeyPair};

/// One old-vs-new comparison in the artifact.
#[derive(Serialize)]
pub struct MicrobenchRow {
    /// Operation name (`mod_pow`, `dsa_sign`, `dsa_verify`, `sha256_pair`,
    /// `div_rem`, `rsa_sign`).
    pub name: String,
    /// Timed iterations per side.
    pub ops: u64,
    /// Mean nanoseconds per op, superseded implementation.
    pub old_ns_per_op: f64,
    /// Mean nanoseconds per op, shipped fast path.
    pub new_ns_per_op: f64,
    /// `old_ns_per_op / new_ns_per_op`.
    pub speedup: f64,
}

fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

fn row(name: &str, ops: u64, old_ns: f64, new_ns: f64) -> MicrobenchRow {
    MicrobenchRow {
        name: name.to_string(),
        ops,
        old_ns_per_op: old_ns,
        new_ns_per_op: new_ns,
        speedup: if new_ns > 0.0 { old_ns / new_ns } else { 0.0 },
    }
}

/// A random odd modulus of exactly `bits` bits.
fn odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
    let m = BigUint::random_exact_bits(rng, bits);
    if m.is_even() {
        m.add(&BigUint::one())
    } else {
        m
    }
}

/// The textbook DSA verify, forced onto the legacy exponentiation: the
/// pre-fast-path implementation, kept here for the comparison.
fn verify_legacy(pk: &DsaPublicKey, digest: &Digest, sig: &DsaSignature) -> bool {
    if sig.r.is_zero() || sig.s.is_zero() {
        return false;
    }
    let w = match sig.s.mod_inverse(&pk.q) {
        Some(w) => w,
        None => return false,
    };
    let z = BigUint::from_bytes_be(digest);
    let excess = z.bits().saturating_sub(pk.q.bits());
    let z = z.shr(excess).rem(&pk.q);
    let u1 = z.mul_mod(&w, &pk.q);
    let u2 = sig.r.mul_mod(&w, &pk.q);
    let v =
        pk.g.mod_pow_legacy(&u1, &pk.p)
            .mul_mod(&pk.y.mod_pow_legacy(&u2, &pk.p), &pk.p)
            .rem(&pk.q);
    v == sig.r
}

/// Runs the six comparisons. Smoke mode shrinks parameter sizes and
/// iteration counts so CI finishes in seconds; full mode uses the classic
/// 512/160-bit DSA sizes, 256-bit exponentiations and RSA-1024 (the
/// division row is 2048-by-1024 bits in both modes).
pub fn run(smoke: bool, seed: u64) -> Vec<MicrobenchRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1b0);
    let (exp_bits, p_bits, q_bits, rsa_bits) = if smoke {
        (128, 160, 64, 256)
    } else {
        (256, 512, 160, 1024)
    };
    let (exp_iters, sign_iters, verify_iters, sha_iters, div_iters, rsa_iters) = if smoke {
        (10u64, 40u64, 10u64, 4_000u64, 10u64, 10u64)
    } else {
        (60u64, 400u64, 40u64, 40_000u64, 100u64, 40u64)
    };
    let mut rows = Vec::with_capacity(6);

    // mod_pow: identical random operands through both exponentiation paths.
    let modulus = odd_modulus(&mut rng, exp_bits);
    let base = BigUint::random_below(&mut rng, &modulus);
    let exponent = BigUint::random_exact_bits(&mut rng, exp_bits);
    let old = time_ns(exp_iters, || {
        black_box(base.mod_pow_legacy(&exponent, &modulus));
    });
    let new = time_ns(exp_iters, || {
        black_box(base.mod_pow(&exponent, &modulus));
    });
    rows.push(row("mod_pow", exp_iters, old, new));

    // dsa_sign: fresh nonce exponentiation vs the precomputed pair pool.
    let kp = DsaKeyPair::generate(p_bits, q_bits, &mut rng);
    let digest = sha256(b"crypto_microbench");
    let old = time_ns(sign_iters, || {
        black_box(kp.sign(&digest, &mut rng));
    });
    let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(seed ^ 0x9001));
    pool.replenish(sign_iters as usize + 4);
    let new = time_ns(sign_iters, || {
        black_box(kp.sign_pooled(&digest, &mut pool));
    });
    rows.push(row("dsa_sign", sign_iters, old, new));

    // dsa_verify: textbook double exponentiation vs cached fixed-base
    // tables (warmed once before timing, as any long-lived verifier is).
    let signature = kp.sign(&digest, &mut rng);
    assert!(verify_legacy(&kp.public, &digest, &signature));
    assert!(kp.public.verify(&digest, &signature));
    let old = time_ns(verify_iters, || {
        black_box(verify_legacy(&kp.public, &digest, &signature));
    });
    let new = time_ns(verify_iters, || {
        black_box(kp.public.verify(&digest, &signature));
    });
    rows.push(row("dsa_verify", verify_iters, old, new));

    // sha256_pair: the staging-buffer concatenation hash vs one-block
    // streaming compression.
    let a = sha256(b"left");
    let b = sha256(b"right");
    let old = time_ns(sha_iters, || {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        black_box(sha256(&buf));
    });
    let new = time_ns(sha_iters, || {
        black_box(sha256_pair(&a, &b));
    });
    rows.push(row("sha256_pair", sha_iters, old, new));

    // div_rem: one bit per step vs one 32-bit quotient limb per step.
    let dividend = BigUint::random_exact_bits(&mut rng, 2048);
    let divisor = BigUint::random_exact_bits(&mut rng, 1024);
    assert_eq!(
        dividend.div_rem(&divisor),
        dividend.div_rem_bitwise(&divisor)
    );
    let old = time_ns(div_iters, || {
        black_box(dividend.div_rem_bitwise(&divisor));
    });
    let new = time_ns(div_iters, || {
        black_box(dividend.div_rem(&divisor));
    });
    rows.push(row("div_rem", div_iters, old, new));

    // rsa_sign: one full-width exponentiation vs two half-width ones plus
    // Garner recombination and the s^e = m check.
    let rsa = RsaKeyPair::generate(rsa_bits, &mut rng);
    assert_eq!(rsa.sign(&digest), rsa.sign_plain(&digest));
    let old = time_ns(rsa_iters, || {
        black_box(rsa.sign_plain(&digest));
    });
    let new = time_ns(rsa_iters, || {
        black_box(rsa.sign(&digest));
    });
    rows.push(row("rsa_sign", rsa_iters, old, new));

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows_cover_all_six_operations() {
        let rows = run(true, 7);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "mod_pow",
                "dsa_sign",
                "dsa_verify",
                "sha256_pair",
                "div_rem",
                "rsa_sign"
            ]
        );
        for row in &rows {
            assert!(row.ops > 0);
            assert!(row.old_ns_per_op > 0.0, "{}", row.name);
            assert!(row.new_ns_per_op > 0.0, "{}", row.name);
        }
    }
}
