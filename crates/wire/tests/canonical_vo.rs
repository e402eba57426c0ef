//! Canonical VO encoding: every verification object has exactly one byte
//! encoding. A one-byte change to a valid VO either fails to decode or
//! decodes to a VO that re-encodes differently, so no byte flip can pass for
//! the original answer.

use std::sync::OnceLock;

use proptest::prelude::*;
use vaq_authquery::{
    IfmhTree, IntersectionVerification, Query, Server, SigningMode, VerificationObject,
};
use vaq_crypto::SignatureScheme;
use vaq_wire::{WireDecode, WireEncode, WireError};
use vaq_workload::uniform_dataset;

/// Encoded VOs of every query kind under both signing modes.
fn sample_vos() -> &'static [VerificationObject] {
    static VOS: OnceLock<Vec<VerificationObject>> = OnceLock::new();
    VOS.get_or_init(|| {
        let dataset = uniform_dataset(12, 2, 3);
        let scheme = SignatureScheme::test_rsa(3);
        let w = vec![0.6, 0.4];
        let queries = [
            Query::top_k(w.clone(), 3),
            Query::range(w.clone(), 0.2, 0.7),
            Query::knn(w, 2, 0.5),
        ];
        let mut vos = Vec::new();
        for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
            let server = Server::new(dataset.clone(), IfmhTree::build(&dataset, mode, &scheme));
            vos.extend(queries.iter().map(|q| server.process(q).vo));
        }
        vos
    })
}

#[test]
fn a_boolean_byte_set_to_2_is_a_decode_error() {
    let vo = &sample_vos()[0];
    let framed = vo.to_framed_bytes();
    // Locate the first IMH step's `went_above` byte: the only byte that
    // changes when that flag is inverted.
    let mut inverted = vo.clone();
    match &mut inverted.intersection_verification {
        IntersectionVerification::OneSignature { path } if !path.is_empty() => {
            path[0].went_above = !path[0].went_above;
        }
        other => panic!("expected a one-signature VO with an IMH path, got {other:?}"),
    }
    let other = inverted.to_framed_bytes();
    let diffs: Vec<usize> = (0..framed.len())
        .filter(|&i| framed[i] != other[i])
        .collect();
    assert_eq!(diffs.len(), 1, "one flag, one byte");

    let mut forged = framed;
    forged[diffs[0]] = 2;
    assert_eq!(
        VerificationObject::from_framed_bytes(&forged),
        Err(WireError::InvalidBool(2))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_decodable_one_byte_flip_re_encodes_to_different_bytes(
        which in 0usize..6,
        position in 0usize..,
        mask in 1u8..=255,
    ) {
        let original = sample_vos()[which].to_wire_bytes();
        let mut flipped = original.clone();
        let i = position % flipped.len();
        flipped[i] ^= mask;
        if let Ok(vo) = VerificationObject::from_wire_bytes(&flipped) {
            prop_assert_ne!(vo.to_wire_bytes(), original);
        }
    }
}
