//! The tamper gate: verified answers with one record attribute or one VO
//! byte flipped must each be rejected with a `VerifyError`.

use vaq_authquery::{Query, QueryResponse, VerificationObject, VerifiedResult, VerifyError};
use vaq_wire::{WireDecode, WireEncode};

use crate::inputs::Rng;
use crate::load::Answer;

/// Flips tried per answer before giving up on finding a VO byte whose flip
/// still decodes to a different VO (most land in digests, signatures and
/// numbers).
const VO_FLIP_TRIES: usize = 256;

#[derive(Debug, Default)]
pub struct TamperReport {
    pub checks: u64,
    /// VO flips that decoded to the very same VO (a non-canonical encoding,
    /// not a tamper): skipped and counted.
    pub noncanonical: u64,
    /// Tampered answers that verification accepted, or that could not be
    /// tampered: each one fails the gate.
    pub escapes: Vec<String>,
}

/// Tampers with every answer twice (a record attribute, a VO byte), each
/// time from the seeded stream, and verifies the result with `verify`.
pub fn check<F>(answers: &[Answer], seed: u64, verify: F) -> TamperReport
where
    F: Fn(&Query, &QueryResponse, u64) -> Result<VerifiedResult, VerifyError>,
{
    let mut rng = Rng::stream(seed, "tamper");
    let mut report = TamperReport::default();
    for a in answers {
        if !a.response.records.is_empty() {
            let mut forged = a.response.clone();
            let r = rng.range(0, forged.records.len() - 1);
            let attr = &mut forged.records[r].attrs;
            let j = rng.range(0, attr.len() - 1);
            attr[j] = f64::from_bits(attr[j].to_bits() ^ (1 << rng.range(0, 51)));
            report.checks += 1;
            if verify(&a.query, &forged, a.epoch).is_ok() {
                report.escapes.push(format!(
                    "request {}: record {r} attribute {j} flipped and accepted",
                    a.id
                ));
            }
        }

        let bytes = a.response.vo.to_wire_bytes();
        let mut noncanonical = 0;
        let forged_vo = (0..VO_FLIP_TRIES).find_map(|_| {
            let mut b = bytes.clone();
            let pos = rng.range(0, b.len() - 1);
            b[pos] ^= 1 << rng.range(0, 7);
            let vo = VerificationObject::from_wire_bytes(&b).ok()?;
            if vo.to_wire_bytes() == bytes {
                noncanonical += 1;
                return None;
            }
            Some((pos, vo))
        });
        report.noncanonical += noncanonical;
        report.checks += 1;
        match forged_vo {
            Some((pos, vo)) => {
                let mut forged = a.response.clone();
                forged.vo = vo;
                if verify(&a.query, &forged, a.epoch).is_ok() {
                    report.escapes.push(format!(
                        "request {}: VO byte {pos} flipped and accepted",
                        a.id
                    ));
                }
            }
            None => report.escapes.push(format!(
                "request {}: no decodable one-byte VO flip found",
                a.id
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_authquery::{verify_at_epoch, IfmhTree, Server, SigningMode};
    use vaq_crypto::SignatureScheme;

    fn answers() -> (
        Vec<Answer>,
        vaq_funcdb::Dataset,
        vaq_crypto::signer::PublicKey,
    ) {
        let data = crate::inputs::dataset(12, 2, 3);
        let scheme = SignatureScheme::new_rsa(512, 3);
        let tree = IfmhTree::build_at_epoch(&data, SigningMode::OneSignature, &scheme, 4);
        let server = Server::new(data.clone(), tree);
        let maker = crate::inputs::QueryMaker::new(&data);
        let mut rng = Rng::stream(1, "q");
        let answers = (0..6)
            .map(|i| {
                let query = maker.make(&mut rng, i % 3, 3);
                let response = server.process(&query);
                Answer {
                    id: i as u64,
                    query,
                    epoch: 4,
                    response,
                }
            })
            .collect();
        (answers, data, scheme.public_key())
    }

    #[test]
    fn real_verification_rejects_every_tamper() {
        let (answers, data, key) = answers();
        let report = check(&answers, 9, |q, r, e| {
            verify_at_epoch(q, &r.records, &r.vo, &data.template, &key, e)
        });
        assert_eq!(report.checks, 12);
        assert!(report.escapes.is_empty(), "{:?}", report.escapes);
    }

    #[test]
    fn a_verifier_that_accepts_everything_fails_the_gate() {
        let (answers, _, _) = answers();
        let report = check(&answers, 9, |_, _, _| {
            Ok(VerifiedResult {
                cost: Default::default(),
                scores: Vec::new(),
            })
        });
        assert_eq!(report.escapes.len(), 12);
    }
}
