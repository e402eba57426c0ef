//! Regression tests: a republication swaps the signed structure atomically
//! with the epoch. A response served after the swap carrying old-epoch
//! interior digests or signatures cannot verify at its own envelope epoch,
//! and a verifying client pinned to the new epoch gets verified answers.

use vaq_authquery::{verify_at_epoch, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_service::{QueryService, ServiceClient, ServiceConfig};
use vaq_workload::uniform_dataset;

#[test]
fn republish_swaps_the_signed_structure_with_the_epoch() {
    let dataset = uniform_dataset(30, 1, 99);
    let scheme = SignatureScheme::test_rsa(99);
    let verifier = scheme.verifier();
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let t0 = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 0);
        let service =
            QueryService::bind(ServiceConfig::ephemeral(), Server::new(dataset.clone(), t0))
                .expect("bind");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
        let query = Query::top_k(vec![0.5], 3);

        let (epoch, resp) = client.query_with_epoch(&query).expect("query at epoch 0");
        assert_eq!(epoch, 0);
        verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            0,
        )
        .expect("pre-republish response verifies at epoch 0");

        let t1 = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 1);
        service
            .republish(Server::new(dataset.clone(), t1))
            .expect("hot swap to epoch 1");

        // Post-swap, the served interior proof must be the new epoch's:
        // the response verifies at epoch 1 and at no other epoch.
        let (epoch, resp) = client.query_with_epoch(&query).expect("query at epoch 1");
        assert_eq!(epoch, 1, "{mode:?}: envelope stamp must advance");
        verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            1,
        )
        .expect("new-epoch response must carry new-epoch proofs");
        assert!(
            verify_at_epoch(
                &query,
                &resp.records,
                &resp.vo,
                &dataset.template,
                verifier.as_ref(),
                0,
            )
            .is_err(),
            "{mode:?}: response after republish must not verify at the superseded epoch"
        );
        service.shutdown();
    }
}

#[test]
fn query_verified_verifies_at_the_republished_epoch() {
    let dataset = uniform_dataset(16, 1, 41);
    let scheme = SignatureScheme::test_rsa(41);
    let verifier = scheme.verifier();
    let t0 = IfmhTree::build_at_epoch(&dataset, SigningMode::OneSignature, &scheme, 0);
    let service = QueryService::bind(ServiceConfig::ephemeral(), Server::new(dataset.clone(), t0))
        .expect("bind");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let query = Query::top_k(vec![0.5], 3);
    client
        .query_verified(0, &query, &dataset.template, verifier.as_ref())
        .expect("verified at epoch 0");

    let t1 = IfmhTree::build_at_epoch(&dataset, SigningMode::OneSignature, &scheme, 1);
    service
        .republish(Server::new(dataset.clone(), t1))
        .expect("hot swap to epoch 1");

    let (response, verified) = client
        .query_verified(1, &query, &dataset.template, verifier.as_ref())
        .expect("verified at epoch 1");
    assert_eq!(response.records.len(), 3);
    assert_eq!(verified.scores.len(), 3);
    // A pin to the superseded epoch is a typed stale-epoch error, not a
    // signature failure.
    let err = client
        .query_verified(0, &query, &dataset.template, verifier.as_ref())
        .expect_err("stale pin");
    assert!(err.is_stale_epoch(), "expected StaleEpoch, got {err:?}");
    service.shutdown();
}
