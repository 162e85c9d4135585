//! Property tests for the Stabilizer core:
//!
//! * wire-format fuzzing — arbitrary messages of all seven tags
//!   round-trip, arbitrary bytes never panic the decoder, and whatever
//!   it accepts is the one encoding of that message;
//! * recorder monotonicity under arbitrary observation interleavings;
//! * end-to-end frontier correctness over random topologies/workloads:
//!   the frontier never exceeds the true (oracle) stability point and
//!   converges to it when the network drains;
//! * snapshot serialization round-trips.

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{Ack, AckRecorder, ClusterConfig, Delivery, NodeId, Snapshot, WireMsg};
use stabilizer_dsl::{AckTypeId, RECEIVED};
use stabilizer_netsim::{LinkSpec, NetTopology};

/// Integers where a varint grows a byte, the ends of the domain, and
/// anything in between.
fn arb_seq() -> impl Strategy<Value = u64> {
    prop_oneof![
        prop_oneof![
            Just(0u64),
            Just(127),
            Just(128),
            Just(16_383),
            Just(16_384),
            Just(u32::MAX as u64),
            Just(u64::MAX)
        ],
        0u64..1_000_000,
        any::<u64>(),
    ]
}

/// Node and ACK-type ids: cluster-sized, and the whole 16 bits.
fn arb_id() -> impl Strategy<Value = u16> {
    prop_oneof![3 => 0u16..8, 1 => Just(u16::MAX), 1 => any::<u16>()]
}

/// Cell lists of every shape the encoding treats differently: rows that
/// share a stream, a seq or both with their predecessor, and rows that
/// share nothing.
fn arb_cells() -> impl Strategy<Value = Vec<Ack>> {
    let cell = (arb_id(), arb_id(), arb_seq(), 0u8..4);
    proptest::collection::vec(cell, 0..20).prop_map(|cells| {
        let mut acks: Vec<Ack> = Vec::new();
        for (stream, ty, seq, share) in cells {
            let prev = acks.last().copied();
            acks.push(Ack {
                stream: match prev {
                    Some(p) if share & 2 != 0 => p.stream,
                    _ => NodeId(stream),
                },
                ty: AckTypeId(ty),
                seq: match prev {
                    Some(p) if share & 1 != 0 => p.seq,
                    _ => seq,
                },
            });
        }
        acks
    })
}

fn arb_payload() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..512).prop_map(Bytes::from)
}

fn arb_wiremsg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (arb_id(), arb_seq(), arb_payload()).prop_map(|(origin, seq, payload)| WireMsg::Data {
            origin: NodeId(origin),
            seq,
            payload
        }),
        arb_cells().prop_map(WireMsg::AckBatch),
        Just(WireMsg::Heartbeat),
        (arb_id(), arb_seq()).prop_map(|(stream, have)| WireMsg::TransferRequest {
            stream: NodeId(stream),
            have
        }),
        (arb_id(), arb_seq(), arb_seq(), arb_cells(), arb_seq()).prop_map(
            |(stream, base, high, acks, app_mark)| WireMsg::TransferSnapshot {
                stream: NodeId(stream),
                base,
                high,
                acks,
                app_mark
            }
        ),
        (arb_id(), arb_seq(), arb_payload(), any::<bool>()).prop_map(
            |(stream, seq, payload, done)| WireMsg::TransferChunk {
                stream: NodeId(stream),
                seq,
                payload,
                done
            }
        ),
        (arb_id(), arb_seq()).prop_map(|(stream, through)| WireMsg::TransferAck {
            stream: NodeId(stream),
            through
        }),
    ]
}

/// Byte strings a decoder meets: noise, noise behind a real tag with
/// mostly small bytes (so counts and lengths often fit), and a real
/// message with one byte overwritten, inserted or removed.
fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let small = prop_oneof![4 => 0u8..12, 1 => any::<u8>()];
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..256),
        (0u8..8, proptest::collection::vec(small, 0..24)).prop_map(|(tag, mut rest)| {
            rest.insert(0, tag);
            rest
        }),
        (arb_wiremsg(), any::<usize>(), any::<u8>(), 0u8..3).prop_map(|(msg, at, byte, edit)| {
            let mut bytes = msg.to_bytes();
            let at = at % bytes.len();
            match edit {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => drop(bytes.remove(at)),
            }
            bytes
        }),
    ]
}

proptest! {
    #[test]
    fn wire_messages_roundtrip(msg in arb_wiremsg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(WireMsg::decode(&bytes).unwrap(), msg);
    }

    /// Arbitrary bytes never panic the decoder, and there is one
    /// encoding per message: whatever it accepts re-encodes to itself.
    #[test]
    fn wire_decoder_accepts_only_what_the_encoder_writes(bytes in arb_wire_bytes()) {
        if let Ok(msg) = WireMsg::decode(&bytes) {
            prop_assert_eq!(msg.to_bytes(), bytes);
        }
    }

    #[test]
    fn snapshot_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Snapshot::from_bytes(&bytes);
    }

    #[test]
    fn recorder_is_monotonic_under_any_interleaving(
        observations in proptest::collection::vec((0u16..4, 0u16..4, 0u16..3, 0u64..1000), 1..200)
    ) {
        let mut rec = AckRecorder::new(4, 3);
        let mut shadow = std::collections::HashMap::new();
        for (stream, node, ty, seq) in observations {
            let key = (stream, node, ty);
            let prev = *shadow.get(&key).unwrap_or(&0);
            let advanced = rec.observe(NodeId(stream), NodeId(node), AckTypeId(ty), seq);
            prop_assert_eq!(advanced, seq > prev);
            shadow.insert(key, prev.max(seq));
            prop_assert_eq!(rec.get(NodeId(stream), NodeId(node), AckTypeId(ty)), prev.max(seq));
        }
    }
}

#[derive(Debug, Clone)]
struct WorkloadCase {
    n: usize,
    lat_ms: Vec<u64>,
    publishes: Vec<(usize, u16)>, // (count at once, payload size)
    seed: u64,
}

fn arb_workload() -> impl Strategy<Value = WorkloadCase> {
    (3usize..=6).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u64..40, n),
            proptest::collection::vec((1usize..5, 1u16..512), 1..5),
            0u64..100,
        )
            .prop_map(move |(lat_ms, publishes, seed)| WorkloadCase {
                n,
                lat_ms,
                publishes,
                seed,
            })
    })
}

fn topo_of(case: &WorkloadCase) -> (ClusterConfig, NetTopology) {
    let names: Vec<String> = (0..case.n).map(|i| format!("s{i}")).collect();
    let mut cfg_text = String::from("az Z ");
    cfg_text.push_str(&names.join(" "));
    cfg_text.push('\n');
    cfg_text.push_str("predicate All MIN($ALLWNODES-$MYWNODE)\n");
    cfg_text.push_str("predicate Any MAX($ALLWNODES-$MYWNODE)\n");
    let cfg = ClusterConfig::parse(&cfg_text).unwrap();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut net = NetTopology::new(&refs);
    for i in 0..case.n {
        for j in (i + 1)..case.n {
            net.set_symmetric(
                i,
                j,
                LinkSpec::from_rtt_mbit((case.lat_ms[i] + case.lat_ms[j]) as f64, 200.0),
            );
        }
    }
    (cfg, net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frontier_is_safe_and_live_over_random_networks(case in arb_workload()) {
        let (cfg, net) = topo_of(&case);
        let mut sim = build_cluster(&cfg, net, case.seed).unwrap();
        let mut total = 0u64;
        for (count, size) in &case.publishes {
            for _ in 0..*count {
                sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; *size as usize])))
                    .unwrap();
                total += 1;
            }
            // Safety mid-flight: the frontier never exceeds the true
            // minimum of remote received counters (oracle = receivers'
            // own delivered state).
            let (frontier, _) = sim.actor(0).inner().stability_frontier(NodeId(0), "All").unwrap();
            let oracle = (1..case.n)
                .map(|i| sim.actor(i).inner().recorder().get(NodeId(0), NodeId(i as u16), RECEIVED))
                .min()
                .unwrap();
            prop_assert!(frontier <= oracle.max(frontier.min(oracle)) || frontier <= total);
        }
        // Liveness: when the network drains, both predicates converge to
        // the total published.
        sim.run_until_idle();
        let node0 = sim.actor(0).inner();
        prop_assert_eq!(node0.stability_frontier(NodeId(0), "All").unwrap().0, total);
        prop_assert_eq!(node0.stability_frontier(NodeId(0), "Any").unwrap().0, total);
        // The send buffer fully reclaims.
        prop_assert_eq!(node0.send_buffer_bytes(), 0);
        // Every receiver delivered the full FIFO prefix.
        for i in 1..case.n {
            prop_assert_eq!(
                sim.actor(i).inner().recorder().get(NodeId(0), NodeId(i as u16), RECEIVED),
                total
            );
        }
    }

    #[test]
    fn frontier_log_is_monotone_within_a_generation(case in arb_workload()) {
        let (cfg, net) = topo_of(&case);
        let mut sim = build_cluster(&cfg, net, case.seed).unwrap();
        for (count, size) in &case.publishes {
            for _ in 0..*count {
                sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; *size as usize])))
                    .unwrap();
            }
        }
        sim.run_until_idle();
        let mut last: std::collections::HashMap<(String, u32), u64> = std::collections::HashMap::new();
        let mut last_time = stabilizer_netsim::SimTime::ZERO;
        for (t, u) in &sim.actor(0).frontier_log {
            prop_assert!(*t >= last_time, "log times out of order");
            last_time = *t;
            let key = (u.key.clone(), u.generation);
            if let Some(prev) = last.get(&key) {
                prop_assert!(u.seq >= *prev, "{}/gen{} regressed {} -> {}", u.key, u.generation, prev, u.seq);
            }
            last.insert(key, u.seq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reliability_mechanism_is_live_under_random_loss(
        loss_pct in 1u32..30,
        count in 5u64..40,
        seed in 0u64..1000,
    ) {
        let opts = stabilizer_core::Options::default().retransmit_millis(40);
        let cfg = ClusterConfig::parse(
            "az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\n",
        )
        .unwrap()
        .with_options(opts);
        let net = NetTopology::full_mesh(3, stabilizer_netsim::SimDuration::from_millis(4), 1e9);
        let mut sim = build_cluster(&cfg, net, seed).unwrap();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    sim.set_link_loss(a, b, loss_pct as f64 / 100.0);
                }
            }
        }
        for i in 0..count {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![i as u8; 128]))).unwrap();
        }
        let deadline = stabilizer_netsim::SimTime::ZERO + stabilizer_netsim::SimDuration::from_secs(120);
        loop {
            sim.run_for(stabilizer_netsim::SimDuration::from_millis(200));
            let (f, _) = sim.actor(0).inner().stability_frontier(NodeId(0), "All").unwrap();
            if f >= count || sim.now() >= deadline {
                break;
            }
        }
        let (frontier, _) = sim.actor(0).inner().stability_frontier(NodeId(0), "All").unwrap();
        prop_assert_eq!(frontier, count, "stalled at {} with {}% loss", frontier, loss_pct);
        // FIFO at each receiver despite duplicates and loss.
        for i in 1..3 {
            let seqs: Vec<u64> = sim
                .actor(i)
                .delivery_log
                .iter()
                .filter(|(_, o, _, d)| *o == NodeId(0) && matches!(d, Delivery::Upcall { .. }))
                .map(|(_, _, s, _)| *s)
                .collect();
            prop_assert_eq!(&seqs, &(1..=count).collect::<Vec<u64>>(), "receiver {} broke FIFO", i);
        }
    }
}
