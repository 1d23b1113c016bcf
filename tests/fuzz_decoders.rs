//! Decoder fuzzing: every protocol decoder must survive arbitrary and
//! mutated bytes without panicking, and must bound its allocations by
//! the *received* data rather than attacker-declared lengths.
//!
//! Complements `tests/robustness.rs` (seeded random sweeps) with
//! property-based coverage and deterministic hostile-header cases.

use proptest::prelude::*;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_corpus::tzip;
use tiptoe_dpf::DpfKey;
use tiptoe_lwe::{LweCiphertext, LweParams};
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{open, seal};
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, QueryToken, Underhood};

fn test_underhood() -> Underhood {
    let lwe = LweParams::insecure_test(32, 991, 6.4);
    let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
    Underhood::with_outer(lwe, rlwe, 44)
}

/// A valid encoded secret + token pair to mutate from.
fn valid_messages() -> (Vec<u8>, Vec<u8>) {
    let uh = test_underhood();
    let mut rng = seeded_rng(99);
    let db = tiptoe_math::matrix::Mat::from_fn(6, 16, |i, j| ((i * 17 + j * 5) % 16) as u32);
    let a = tiptoe_lwe::MatrixA::new(3, 16, uh.lwe().n);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let hint = tiptoe_lwe::scheme::preproc::<u32>(&db, &a.row_range(0, 16), 1);
    let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
    (es.encode(), token.encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = EncryptedSecret::decode(&data);
        let _ = QueryToken::decode(&data);
        let _ = DpfKey::decode(&data);
        let _ = LweCiphertext::<u32>::decode(&data);
        let _ = LweCiphertext::<u64>::decode(&data);
        let _ = tzip::decompress(&data);
        let _ = CompressedUrlBatch::decode_payload(&data);
        let _ = open(&data);
    }

    #[test]
    fn mutated_valid_secrets_never_panic(
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let (es_bytes, _) = valid_messages();
        let mut mutated = es_bytes;
        let i = idx % mutated.len();
        mutated[i] ^= xor;
        let _ = EncryptedSecret::decode(&mutated);
    }

    #[test]
    fn mutated_valid_tokens_never_panic(
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let (_, token_bytes) = valid_messages();
        let mut mutated = token_bytes;
        let i = idx % mutated.len();
        mutated[i] ^= xor;
        let _ = QueryToken::decode(&mutated);
    }

    #[test]
    fn truncated_valid_tokens_never_panic(cut in 0usize..4096) {
        let (es_bytes, token_bytes) = valid_messages();
        let t = cut % (token_bytes.len() + 1);
        let _ = QueryToken::decode(&token_bytes[..t]);
        let e = cut % (es_bytes.len() + 1);
        let _ = EncryptedSecret::decode(&es_bytes[..e]);
    }

    #[test]
    fn tampered_envelopes_are_rejected_not_parsed(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let sealed = seal(&payload);
        prop_assert_eq!(open(&sealed).expect("own envelope opens"), &payload[..]);
        let mut tampered = sealed.clone();
        let i = idx % tampered.len();
        tampered[i] ^= xor;
        prop_assert!(open(&tampered).is_err(), "bit flip at {i} must be caught");
        // Any truncation is caught too.
        let t = idx % sealed.len();
        prop_assert!(open(&sealed[..t]).is_err());
    }

    #[test]
    fn tzip_decoder_output_is_bounded_by_the_declared_header(
        body in proptest::collection::vec(any::<u8>(), 4..512),
    ) {
        if let Ok(out) = tzip::decompress(&body) {
            let declared = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            prop_assert_eq!(out.len(), declared);
        }
    }
}

#[test]
fn hostile_length_headers_fail_fast_without_huge_allocation() {
    // tzip: a 4 GiB declared size must be rejected up front (the
    // decoder caps declared sizes and clamps its pre-allocation).
    let mut hostile = vec![0u8; 64];
    hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(tzip::decompress(&hostile).is_err());

    // Envelope: a huge declared payload length on a short buffer.
    let valid = seal(b"ok");
    let mut huge = valid.clone();
    huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(open(&huge).is_err());

    // Query token: a row count far beyond the shipped chunks.
    let (_, token_bytes) = valid_messages();
    let mut rows_forged = token_bytes.clone();
    rows_forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(QueryToken::decode(&rows_forged).is_err());

    // The originals still parse after all this.
    assert!(QueryToken::decode(&token_bytes).is_ok());
    assert_eq!(open(&valid).expect("valid"), b"ok");
}

#[test]
fn pir_recover_rejects_short_answers_gracefully() {
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_pir::{PirClient, PirDatabase, PirServer};
    let uh = test_underhood();
    let mut rng = seeded_rng(5);
    let records: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 40]).collect();
    let db = PirDatabase::build_with_params(&records, *uh.lwe());
    let server = PirServer::new(db, 11, uh.clone());
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let client = PirClient::new(&uh, &key);
    let ct = client.query(&server.public_matrix(), 6, 2, &mut rng);
    let answer = server.answer(&ct);

    for cut in [0, 1, answer.len() / 2, answer.len() - 1] {
        let mut decoded = client.decode_token(&server.generate_token(&es));
        assert!(
            client.recover(server.database(), &mut decoded, &answer[..cut]).is_err(),
            "cut={cut} must error"
        );
    }
    let mut decoded = client.decode_token(&server.generate_token(&es));
    let got = client.recover(server.database(), &mut decoded, &answer).expect("full answer");
    assert_eq!(&got[..40], &records[2][..]);
}
