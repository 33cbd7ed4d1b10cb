//! Bit-identity goldens: digests of seeded scheme outputs, pinned so a
//! refactor of the polynomial layer cannot change a single residue
//! unnoticed.
//!
//! Every FHE operation here is exact modular arithmetic driven by a
//! seeded RNG, so the outputs are a pure function of the seed and the
//! RNG draw order. The constants were computed once and must only
//! change together with a deliberate change of the schemes themselves
//! (new parameters, a different sampling order), never with a change of
//! data layout, kernel or dispatch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};
use ufc_switch::extract::encode_coefficients;
use ufc_switch::hybrid::HybridEnv;
use ufc_tfhe::bootstrap::sign_test_vector;
use ufc_tfhe::{programmable_bootstrap, LweCiphertext, TfheContext, TfheKeys};

/// FNV-1a over the little-endian bytes of a word stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn words(mut self, ws: &[u64]) -> Self {
        for w in ws {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn lwe(self, ct: &LweCiphertext) -> Self {
        self.words(&ct.a).words(&[ct.b, ct.q])
    }
}

#[test]
fn tfhe_pbs_output_and_bootstrapping_key_are_pinned() {
    let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
    let mut rng = StdRng::seed_from_u64(0x5eed_7f4e);
    let keys = TfheKeys::generate(&ctx, &mut rng);
    let row = &keys.bsk[0].a_rows[0];
    let bsk_row = Fnv::new().words(row.a.limb(0)).words(row.b.limb(0)).0;

    let ct = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(3, 8), &mut rng);
    let out = programmable_bootstrap(&ctx, &keys, &ct, &sign_test_vector(&ctx));
    assert_eq!(out.decrypt(&ctx, &keys.lwe_sk, 8), 1);
    let pbs = Fnv::new().lwe(&out).0;

    assert_eq!(
        (bsk_row, pbs),
        (0xe47d_6cae_0f8e_cb59, 0x7583_4d54_7e52_b462),
        "seeded TFHE outputs drifted: bsk row {bsk_row:#018x}, pbs {pbs:#018x}"
    );
}

#[test]
fn ckks_public_key_and_mul_relin_rescale_rotate_are_pinned() {
    let ctx = CkksContext::new(64, 3, 2, 2, 36, 34);
    let mut rng = StdRng::seed_from_u64(0x5eed_cc55);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    keys.gen_rotation_key(&ctx, &sk, 1, &mut rng);
    let mut pk = Fnv::new();
    for i in 0..keys.public.b.limb_count() {
        pk = pk.words(keys.public.b.limb(i)).words(keys.public.a.limb(i));
    }
    let pk = pk.0;

    let ev = Evaluator::new(ctx);
    let a: Vec<f64> = (0..32).map(|i| f64::from(i) * 0.05 - 0.8).collect();
    let b: Vec<f64> = (0..32).map(|i| 1.0 - f64::from(i) * 0.03).collect();
    let ca = ev.encrypt_real(&a, &keys, &mut rng);
    let cb = ev.encrypt_real(&b, &keys, &mut rng);
    let out = ev.rotate(&ev.rescale(&ev.mul(&ca, &cb, &keys)), 1, &keys);
    let mut ct = Fnv::new().words(&[out.level as u64, out.scale.to_bits()]);
    for i in 0..out.limb_count() {
        ct = ct.words(out.c0.limb(i)).words(out.c1.limb(i));
    }
    let ct = ct.0;

    assert_eq!(
        (pk, ct),
        (0x7474_f021_23d5_bf17, 0x93db_06b4_71f8_1390),
        "seeded CKKS outputs drifted: public key {pk:#018x}, ciphertext {ct:#018x}"
    );
}

#[test]
fn knn_extract_batch_output_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0c4a);
    let env = HybridEnv::new_test_scale(&mut rng);
    let values = [0u64, 1, 2, 3, 2, 1];
    let pt = encode_coefficients(env.ckks.context(), &values, 8);
    let level = env.ckks.context().max_level();
    let ct = env
        .ckks
        .encrypt_plaintext(&pt, &env.ckks_keys, level, &mut rng);
    let indices: Vec<usize> = (0..values.len()).collect();
    let lwes = env
        .bridge
        .extract_batch(&env.ckks, &ct, &indices, &env.tfhe)
        .expect("indices fit the ring");
    let digest = lwes.iter().fold(Fnv::new(), Fnv::lwe).0;

    assert_eq!(
        digest, 0x78fe_e68f_ef82_b259,
        "seeded extract_batch output drifted: {digest:#018x}"
    );
}
