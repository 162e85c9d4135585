//! A predicate's source comes from a configuration file or an
//! application's `register` call: `parse` must answer any input with a
//! tree or an error, never a panic, and what it allocates must be
//! bounded by the bytes it was given. Counted with a per-thread
//! allocator, as `WireMsg::decode` is in `core/tests/hostile_decode.rs`.
//! `Predicate::compile` is held to no-panic only: its macro expansion
//! legitimately grows with the topology, not with the source.

use proptest::prelude::*;
use stabilizer_dsl::{parse, AckTypeRegistry, NodeId, Predicate, Topology};

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// One input byte can be a whole token, and so is the end of input; a
/// token is 48 B in the
/// lexer's vector and a node of up to ~100 B in the tree; every vector
/// grows by doubling, so up to twice its final size is requested on the
/// way there, for a vector that ends up to half empty. 1 KiB per input
/// byte covers that with room to spare.
const PER_INPUT_BYTE: usize = 1024;
/// A refusal also formats one short error string.
const ERROR_STRING: usize = 256;

fn topo() -> Topology {
    Topology::builder()
        .az("East", &["e1", "e2"])
        .az("West", &["w1"])
        .build()
        .unwrap()
}

/// Parse `src` within the bound, and compile it without a panic.
fn check(src: &str) -> Result<(), TestCaseError> {
    let (cost, parsed) = stabilizer_testalloc::cost(|| parse(src));
    let allowance = if parsed.is_ok() { 0 } else { ERROR_STRING };
    prop_assert!(
        cost <= PER_INPUT_BYTE * (src.len() + 1) + allowance,
        "{} B allocated parsing the {}-byte input {:?}",
        cost,
        src.len(),
        src
    );
    let acks = AckTypeRegistry::new();
    let _ = Predicate::compile(src, &topo(), &acks, NodeId(0));
    Ok(())
}

/// A token of the DSL, or a stray byte between tokens.
fn arb_token() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("MAX"),
        Just("MIN"),
        Just("KTH_MAX"),
        Just("KTH_MIN"),
        Just("SIZEOF"),
        Just("("),
        Just(")"),
        Just(","),
        Just("."),
        Just("+"),
        Just("-"),
        Just("*"),
        Just("/"),
        Just("$1"),
        Just("$3"),
        Just("$0"),
        Just("$99999999999999999999"),
        Just("$ALLWNODES"),
        Just("$MYAZWNODES"),
        Just("$MYWNODE"),
        Just("$WNODE_e1"),
        Just("$AZ_East"),
        Just("$AZ_Nowhere"),
        Just("received"),
        Just("persisted"),
        Just("0"),
        Just("2"),
        Just("18446744073709551615"),
        Just(" "),
        Just("/*"),
        Just("*/"),
        Just("$"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_parse_within_the_bound(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn printable_garbage_parses_within_the_bound(src in "[ -~]{0,256}") {
        check(&src)?;
    }

    #[test]
    fn token_soups_parse_within_the_bound(
        tokens in proptest::collection::vec(arb_token(), 0..400),
    ) {
        check(&tokens.concat())?;
    }
}

#[test]
fn the_densest_sources_parse_within_the_bound() {
    // Each vector just past a doubling, where it holds the most spare
    // room for its length.
    let n = 2048;
    let sources = [
        // The most operands and tokens per byte.
        format!("MAX({}1)", "1,".repeat(n)),
        format!("MAX({}$1)", "$1,".repeat(n)),
        format!("MAX({}$1)", "$1.a,".repeat(n)),
        format!("MAX($1{})", "-$2".repeat(n)),
        format!("MAX({})", "(".repeat(n)),
        format!("MAX({}$1)", "MAX($1),".repeat(n)),
        "MAX($1".to_owned() + &"$".repeat(n),
    ];
    for src in &sources {
        check(src).unwrap();
    }
}
