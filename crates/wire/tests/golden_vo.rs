//! Golden verification objects: the server's VO assembly must reproduce,
//! byte for byte, the framed VOs recorded in `tests/golden/vo.txt`.
//!
//! The fixture covers every query kind (top-k, range, an empty range and
//! KNN) at three weight vectors, × both signing modes × the epochs `0`, `1`
//! and `u64::MAX`, under the deterministic `test_rsa` key. Each line holds
//! the SHA-256 of the framed VO, the interior nodes the server reports
//! collecting, and the result's record ids.
//!
//! The fixture is a contract, not a snapshot to refresh: a change to it is a
//! wire-format or protocol change.
//!
//! DSA signatures draw a fresh nonce, so DSA-signed VO bytes are not
//! reproducible; the same grid runs under `test_dsa` with every check except
//! the byte comparison.

use vaq_authquery::{
    client, IfmhTree, IntersectionVerification, Query, QueryResponse, Server, SigningMode,
};
use vaq_crypto::sha256::{sha256, to_hex};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_wire::WireEncode;
use vaq_workload::uniform_dataset;

const FIXTURE: &str = include_str!("golden/vo.txt");

/// Every query kind at three points of the unit weight domain.
fn queries() -> Vec<Query> {
    let mut out = Vec::new();
    for w in [vec![0.5, 0.5], vec![0.9, 0.1], vec![0.15, 0.85]] {
        out.push(Query::top_k(w.clone(), 3));
        out.push(Query::range(w.clone(), 0.2, 0.7));
        out.push(Query::range(w.clone(), 5.0, 6.0));
        out.push(Query::knn(w, 2, 0.5));
    }
    out
}

/// Answers every (mode, epoch, query) under `scheme`, checks that each VO
/// verifies at its epoch and that the reported interior-node count is the
/// IMH path shipped (one-signature) or zero, and hands each response to
/// `visit` with its fixture-line prefix.
fn for_each_checked_response(
    scheme: &SignatureScheme,
    mut visit: impl FnMut(String, &QueryResponse),
) {
    let dataset = uniform_dataset(40, 2, 7);
    let verifier = scheme.verifier();
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        for epoch in [0u64, 1, u64::MAX] {
            let tree = IfmhTree::build_at_epoch(&dataset, mode, scheme, epoch);
            let server = Server::new(dataset.clone(), tree);
            for query in queries() {
                let resp = server.process(&query);
                let ctx = format!("{mode:?} {epoch} {query}");
                let out = client::verify_at_epoch(
                    &query,
                    &resp.records,
                    &resp.vo,
                    &dataset.template,
                    verifier.as_ref(),
                    epoch,
                );
                assert!(out.is_ok(), "VO failed to verify: {ctx} ({out:?})");
                let shipped = match &resp.vo.intersection_verification {
                    IntersectionVerification::OneSignature { path } => path.len(),
                    IntersectionVerification::MultiSignature { .. } => 0,
                };
                assert_eq!(resp.cost.vo_nodes_collected, shipped, "{ctx}");
                visit(ctx, &resp);
            }
        }
    }
}

#[test]
fn vo_bytes_match_the_golden_fixture_across_kinds_modes_and_epochs() {
    let mut actual = Vec::new();
    for_each_checked_response(&SignatureScheme::test_rsa(9), |ctx, resp| {
        let ids: Vec<String> = resp.records.iter().map(|r| r.id.to_string()).collect();
        actual.push(format!(
            "{ctx} | sha256={} nodes={} ids=[{}]",
            to_hex(&sha256(&resp.vo.to_framed_bytes())),
            resp.cost.vo_nodes_collected,
            ids.join(",")
        ));
    });
    let expected: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(expected.len(), actual.len(), "fixture line count");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(*want, got.as_str(), "VO diverges from the golden fixture");
    }
}

#[test]
fn dsa_signed_vos_verify_across_kinds_modes_and_epochs() {
    let mut checked = 0;
    for_each_checked_response(&SignatureScheme::test_dsa(9), |_, _| checked += 1);
    assert_eq!(checked, FIXTURE.lines().count());
}

#[test]
fn cached_responses_never_verify_under_a_different_epoch() {
    let dataset = uniform_dataset(24, 1, 11);
    let scheme = SignatureScheme::test_rsa(5);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 3);
        let server = Server::new(dataset.clone(), tree);
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![0.5], 2);
        let resp = server.process(&query);
        let ok = client::verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            3,
        );
        assert!(ok.is_ok(), "{mode:?}: honest epoch must verify");
        for wrong in [0u64, 2, 4, u64::MAX] {
            let out = client::verify_at_epoch(
                &query,
                &resp.records,
                &resp.vo,
                &dataset.template,
                verifier.as_ref(),
                wrong,
            );
            assert!(
                out.is_err(),
                "{mode:?}: cached VO signed at epoch 3 must not verify at {wrong}"
            );
        }
    }
}
