//! Wire-format integration tests: every protocol message produced by a
//! live deployment round-trips through its byte encoding, the encoded
//! size equals the `byte_len()` used by the communication accounting,
//! and corrupted/truncated inputs are rejected without panicking.

use rand::Rng;
use tiptoe_dpf::DpfKey;
use tiptoe_lwe::{scheme, LweCiphertext, LweParams, MatrixA};
use tiptoe_math::matrix::Mat;
use tiptoe_math::rng::seeded_rng;
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, QueryToken, Underhood};

fn test_underhood() -> Underhood {
    let lwe = LweParams::insecure_test(64, 1 << 17, 81920.0);
    let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
    Underhood::with_outer(lwe, rlwe, 44)
}

#[test]
fn live_protocol_messages_roundtrip() {
    let uh = test_underhood();
    let mut rng = seeded_rng(1);
    let cols = 32;
    let db = Mat::from_fn(8, cols, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(9, cols, uh.lwe().n);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);

    // 1. The encrypted secret (token-phase upload).
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let es_bytes = es.encode();
    assert_eq!(es_bytes.len() as u64, es.byte_len(), "EncryptedSecret accounting");
    let es_back = EncryptedSecret::decode(&es_bytes).expect("decodes");
    assert_eq!(es_back.len(), es.len());

    // 2. The query token (token-phase download) — and the decoded copy
    //    must be *usable*: the full protocol must round-trip through
    //    serialized messages.
    let hint = scheme::preproc::<u64>(&db, &a.row_range(0, cols), 1);
    let sh = uh.preprocess_hint(&hint);
    let token = uh.generate_token(&sh, &es_back);
    let token_bytes = token.encode();
    assert_eq!(token_bytes.len() as u64, token.byte_len(), "QueryToken accounting");
    let token_back = QueryToken::decode(&token_bytes).expect("decodes");
    assert_eq!(token_back.rows(), token.rows());

    // 3. The online query ciphertext.
    let mut v = vec![0u64; cols];
    v[5] = 1;
    let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
    let ct_bytes = ct.encode();
    assert_eq!(ct_bytes.len() as u64, ct.byte_len(), "LweCiphertext accounting");
    let ct_back = LweCiphertext::<u64>::decode(&ct_bytes).expect("decodes");

    // 4. End-to-end through the serialized artifacts.
    let mut decoded = uh.decode_token::<u64>(&key, &token_back);
    let applied = scheme::apply(&db, &ct_back);
    let got = uh.decrypt(&mut decoded, &applied);
    let want: Vec<u64> = (0..8).map(|r| db.get(r, 5) as u64).collect();
    assert_eq!(got, want, "protocol must survive serialization");
}

#[test]
fn corrupted_messages_are_rejected_not_panicked() {
    let uh = test_underhood();
    let mut rng = seeded_rng(2);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let bytes = es.encode();

    // Truncations at every interesting boundary.
    for cut in [0usize, 3, 4, 12, bytes.len() / 2, bytes.len() - 1] {
        assert!(EncryptedSecret::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // Trailing garbage.
    let mut extended = bytes.clone();
    extended.push(0xff);
    assert!(EncryptedSecret::decode(&extended).is_err());
    // A hostile count prefix must not cause a giant allocation.
    let mut hostile = bytes.clone();
    hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(EncryptedSecret::decode(&hostile).is_err());
}

#[test]
fn dpf_keys_roundtrip_and_reject_bitflips() {
    let mut rng = seeded_rng(3);
    let beta = vec![5u32; 16];
    let (k0, _k1) = tiptoe_dpf::generate(8, 200, &beta, &mut rng);
    let bytes = k0.encode();
    assert_eq!(bytes.len() as u64, k0.byte_len());
    let back = DpfKey::decode(&bytes).expect("decodes");
    for x in [0usize, 100, 200, 255] {
        assert_eq!(tiptoe_dpf::eval(&back, x), tiptoe_dpf::eval(&k0, x));
    }
    // Structural fields are validated.
    let mut bad_party = bytes.clone();
    bad_party[0] = 7;
    assert!(DpfKey::decode(&bad_party).is_err());
    let mut bad_height = bytes.clone();
    bad_height[1] = 99;
    assert!(DpfKey::decode(&bad_height).is_err());
}

#[test]
fn u32_ciphertexts_roundtrip_too() {
    let params = LweParams::insecure_test(32, 991, 6.4);
    let mut rng = seeded_rng(4);
    let a = MatrixA::new(5, 24, params.n);
    let sk = tiptoe_lwe::LweSecretKey::<u32>::generate(&params, &mut rng);
    let mut v = vec![0u64; 24];
    v[3] = 1;
    let ct = scheme::encrypt(&params, &sk, &a, &v, &mut rng);
    let bytes = ct.encode();
    assert_eq!(bytes.len() as u64, ct.byte_len());
    let back = LweCiphertext::<u32>::decode(&bytes).expect("decodes");
    assert_eq!(back, ct);
    // Cross-width decode fails cleanly.
    assert!(LweCiphertext::<u64>::decode(&bytes).is_err());
}
