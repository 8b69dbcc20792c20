//! Wire-format properties over real optimizer output:
//!
//! * encode → decode → encode is the identity on bytes (and the
//!   decoded plan is structurally equal) for every corpus workload's
//!   plan — the canonical-encoding guarantee the EXPLAIN corpus relies
//!   on;
//! * the decoder is total on hostile input: any byte mutation of a
//!   valid encoding, and any random byte string, yields a typed
//!   [`WireError`] or a plan that re-encodes cleanly — never a panic
//!   and never a structurally-invalid plan.

use fro_core::{optimize, Catalog, Policy};
use fro_testkit::corpus_suite;
use fro_wire::{decode_plan, encode_plan};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every corpus plan, with the catalog whose interner is its symbol
/// table. Built once: optimizing every workload per proptest case
/// would dominate the suite's runtime.
fn corpus_encodings() -> &'static Vec<(String, Catalog, Vec<u8>)> {
    static CELL: OnceLock<Vec<(String, Catalog, Vec<u8>)>> = OnceLock::new();
    CELL.get_or_init(|| {
        corpus_suite()
            .into_iter()
            .map(|case| {
                let opt = optimize(&case.query, &case.catalog, Policy::Paper).expect("optimizes");
                let bytes = encode_plan(&opt.plan, case.catalog.interner()).expect("encodes");
                (case.name.to_owned(), case.catalog, bytes)
            })
            .collect()
    })
}

/// Encode → decode → encode identity for every corpus plan.
#[test]
fn corpus_plans_roundtrip_bytewise() {
    for case in corpus_suite() {
        let plan = optimize(&case.query, &case.catalog, Policy::Paper)
            .expect("optimizes")
            .plan;
        let it = case.catalog.interner();
        let name = case.name;
        let bytes = encode_plan(&plan, it).unwrap_or_else(|e| panic!("{name} must encode: {e}"));
        let back = decode_plan(&bytes, it).unwrap_or_else(|e| panic!("{name} must decode: {e}"));
        assert_eq!(back, plan, "{name}: decoded plan differs");
        let again = encode_plan(&back, it).expect("re-encodes");
        assert_eq!(again, bytes, "{name}: re-encode not bytewise");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-byte XOR mutations of valid encodings: the decoder must
    /// return a typed error or a plan that itself re-encodes — never
    /// panic, never hand back something the encoder rejects.
    #[test]
    fn mutated_encodings_never_panic(
        which in 0usize..1_000,
        pos in 0usize..100_000,
        xor in 1u8..=255,
    ) {
        let all = corpus_encodings();
        let (name, catalog, bytes) = &all[which % all.len()];
        let mut mutated = bytes.clone();
        let i = pos % mutated.len();
        mutated[i] ^= xor;
        if let Ok(plan) = decode_plan(&mutated, catalog.interner()) {
            // A mutation may land in a don't-care spot (e.g. turn one
            // valid literal into another). Whatever decodes must be a
            // plan the encoder accepts: structural validity held.
            prop_assert!(
                encode_plan(&plan, catalog.interner()).is_ok(),
                "{name}: mutation at byte {i} decoded to an unencodable plan"
            );
        }
    }

    /// Truncations of valid encodings always fail with a typed error.
    #[test]
    fn truncated_encodings_error(which in 0usize..1_000, cut in 0usize..100_000) {
        let all = corpus_encodings();
        let (name, catalog, bytes) = &all[which % all.len()];
        let keep = cut % bytes.len(); // strictly shorter than the original
        let err = decode_plan(&bytes[..keep], catalog.interner());
        prop_assert!(err.is_err(), "{name}: truncation to {keep} bytes decoded");
    }

    /// Arbitrary byte strings: decoding is total (no panics), and the
    /// rare accidental success still re-encodes.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let (_, catalog, _) = &corpus_encodings()[0];
        if let Ok(plan) = decode_plan(&bytes, catalog.interner()) {
            prop_assert!(encode_plan(&plan, catalog.interner()).is_ok());
        }
    }
}
