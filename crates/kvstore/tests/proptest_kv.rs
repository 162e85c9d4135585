//! Property tests for the K/V substrate: record-codec fuzzing,
//! version-history semantics of the local store, and mirror convergence
//! (every mirror's pool equals the primary's after the network drains).

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_kvstore::{build_kv_cluster, KvOp, LocalStore};
use stabilizer_netsim::{LinkSpec, NetTopology};

fn arb_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (
            "[a-z/]{0,24}",
            proptest::collection::vec(any::<u8>(), 0..256),
            any::<u64>()
        )
            .prop_map(|(key, value, timestamp)| KvOp::Put {
                key,
                value: Bytes::from(value),
                timestamp
            }),
        ("[a-z/]{0,24}", any::<u64>()).prop_map(|(key, timestamp)| KvOp::Delete { key, timestamp }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kv_records_roundtrip(op in arb_op()) {
        prop_assert_eq!(KvOp::decode(&op.to_bytes().unwrap()).unwrap(), op);
    }

    #[test]
    fn kv_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = KvOp::decode(&bytes);
    }

    #[test]
    fn local_store_history_is_a_faithful_journal(
        ops in proptest::collection::vec(("[a-c]", proptest::option::of(0u8..255)), 1..60)
    ) {
        // Apply puts/deletes with increasing timestamps; then every
        // `get_by_time(t)` equals a naive replay of the prefix up to `t`,
        // and `replay(log)` rebuilds the exact store.
        let mut store = LocalStore::new();
        let mut journal: Vec<(String, Option<u8>, u64)> = Vec::new();
        for (i, (key, val)) in ops.iter().enumerate() {
            let ts = (i as u64 + 1) * 10;
            match val {
                Some(v) => { store.put(key, Bytes::from(vec![*v]), ts); }
                None => { store.delete(key, ts); }
            }
            journal.push((key.clone(), *val, ts));
        }
        for probe in [0u64, 5, 15, 100, 305, u64::MAX] {
            for key in ["a", "b", "c"] {
                let expected = journal
                    .iter().rfind(|(k, _, ts)| k == key && *ts <= probe)
                    .and_then(|(_, v, _)| v.map(|b| Bytes::from(vec![b])));
                prop_assert_eq!(store.get_by_time(key, probe), expected, "key {} at {}", key, probe);
            }
        }
        let replayed = LocalStore::replay(store.log());
        for key in ["a", "b", "c"] {
            prop_assert_eq!(replayed.get(key), store.get(key));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mirrors_converge_to_the_primary_pool(
        writes in proptest::collection::vec(("[a-d]", 0u8..255), 1..25),
        lat in 1u64..50,
        seed in 0u64..100,
    ) {
        let cfg = ClusterConfig::parse("az A p m1\naz B m2\n").unwrap();
        let mut net = NetTopology::new(&["p", "m1", "m2"]);
        for a in 0..3 {
            for b in (a + 1)..3 {
                net.set_symmetric(a, b, LinkSpec::from_rtt_mbit(lat as f64, 100.0));
            }
        }
        let mut sim = build_kv_cluster(&cfg, net, seed).unwrap();
        for (key, val) in &writes {
            sim.with_ctx(0, |kv, ctx| kv.put_in(ctx, key, Bytes::from(vec![*val]))).unwrap();
        }
        sim.run_until_idle();
        for key in ["a", "b", "c", "d"] {
            let primary = sim.actor(0).get(NodeId(0), key);
            for mirror in 1..3 {
                let mirrored = sim.actor(mirror).get(NodeId(0), key);
                prop_assert_eq!(&mirrored, &primary, "mirror {} diverged on {}", mirror, key);
            }
        }
        // Version histories match entry for entry.
        for mirror in 1..3 {
            prop_assert_eq!(
                sim.actor(mirror).pool(NodeId(0)).log().len(),
                sim.actor(0).pool(NodeId(0)).log().len()
            );
        }
    }
}
