//! Integration tests for the multi-topic extension: subscription gossip,
//! topic isolation, and per-topic predicate reconfiguration.

use bytes::Bytes;
use stabilizer_core::NodeId;
use stabilizer_netsim::{NetTopology, Simulation};
use stabilizer_pubsub::{build_topic_brokers, pubsub_cfg, TopicBroker};

fn sim() -> Simulation<TopicBroker> {
    build_topic_brokers(&pubsub_cfg(), NetTopology::cloudlab_table2(), 1).unwrap()
}

#[test]
fn subscriptions_gossip_to_every_broker() {
    let mut sim = sim();
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "stocks"))
        .unwrap();
    sim.with_ctx(4, |b, ctx| b.subscribe_in(ctx, "stocks"))
        .unwrap();
    sim.run_until_idle();
    for i in 0..5 {
        assert_eq!(
            sim.actor(i).subscribers("stocks"),
            vec![NodeId(2), NodeId(4)],
            "broker {i} has a stale view"
        );
    }
}

/// A topic too long for a record's 16-bit length field is refused
/// before anything is published or any subscription changes — written
/// truncated, every mirror would refuse the record — and the longest
/// topic that fits gossips like any other.
#[test]
fn a_topic_at_the_length_limit_gossips_and_one_past_it_is_refused() {
    let mut opts = pubsub_cfg().options().clone();
    opts.max_payload_bytes = 1 << 20;
    let cfg = pubsub_cfg().with_options(opts);
    let mut sim = build_topic_brokers(&cfg, NetTopology::cloudlab_table2(), 1).unwrap();
    let (longest, too_long) = ("t".repeat(65_535), "t".repeat(65_536));

    let refused = sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, &too_long));
    assert!(refused.is_err(), "{refused:?}");
    let refused = sim.with_ctx(2, |b, ctx| b.unsubscribe_in(ctx, &too_long));
    assert!(refused.is_err(), "{refused:?}");
    let body = Bytes::from_static(b"x");
    let refused = sim.with_ctx(0, |b, ctx| b.publish_in(ctx, &too_long, body));
    assert!(refused.is_err(), "{refused:?}");
    for i in [0, 2] {
        assert_eq!(sim.actor(i).stabilizer().last_published(), 0, "broker {i}");
    }

    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, &longest))
        .unwrap();
    sim.run_until_idle();
    for i in 0..5 {
        assert_eq!(
            sim.actor(i).subscribers(&longest),
            vec![NodeId(2)],
            "broker {i}"
        );
        assert!(sim.actor(i).subscribers(&too_long).is_empty(), "broker {i}");
    }
}

#[test]
fn topics_are_isolated() {
    let mut sim = sim();
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "stocks"))
        .unwrap();
    sim.with_ctx(3, |b, ctx| b.subscribe_in(ctx, "news"))
        .unwrap();
    sim.run_until_idle();
    sim.with_ctx(0, |b, ctx| {
        b.publish_in(ctx, "stocks", Bytes::from_static(b"AAPL"))
    })
    .unwrap();
    sim.with_ctx(0, |b, ctx| {
        b.publish_in(ctx, "news", Bytes::from_static(b"headline!"))
    })
    .unwrap();
    sim.run_until_idle();
    let topics_at = |i: usize| -> Vec<String> {
        sim.actor(i)
            .deliveries()
            .iter()
            .map(|(_, t, _)| t.clone())
            .collect()
    };
    assert_eq!(topics_at(2), vec!["stocks".to_owned()]);
    assert_eq!(topics_at(3), vec!["news".to_owned()]);
    assert!(
        topics_at(4).is_empty(),
        "unsubscribed broker received a delivery"
    );
}

#[test]
fn per_topic_predicate_tracks_only_subscribed_sites() {
    let mut sim = sim();
    // Only Wisconsin (fast-ish) subscribes: the topic frontier must not
    // wait for Clemson.
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "t")).unwrap();
    sim.run_until_idle();
    let seq = sim
        .with_ctx(0, |b, ctx| {
            b.publish_in(ctx, "t", Bytes::from(vec![0u8; 8192]))
        })
        .unwrap();
    sim.run_until_idle();
    let publisher = sim.actor(0);
    assert_eq!(publisher.topic_frontier("t"), Some(seq));
    let covered_at = publisher.topic_covered_at("t", seq).unwrap();
    let lat = covered_at
        .since(publisher.send_times.last().copied().unwrap())
        .as_millis_f64();
    assert!(
        (34.0..40.0).contains(&lat),
        "WI-only topic stabilized at {lat}ms"
    );
}

#[test]
fn unsubscribe_narrows_the_predicate_dynamically() {
    let mut sim = sim();
    for i in [2usize, 3] {
        sim.with_ctx(i, |b, ctx| b.subscribe_in(ctx, "t")).unwrap();
    }
    sim.run_until_idle();
    // With Clemson (3) subscribed the frontier is Clemson-gated (~51 ms).
    let s1 = sim
        .with_ctx(0, |b, ctx| {
            b.publish_in(ctx, "t", Bytes::from(vec![0u8; 1024]))
        })
        .unwrap();
    sim.run_until_idle();
    let lat = |sim: &stabilizer_netsim::Simulation<stabilizer_pubsub::TopicBroker>, seq: u64| {
        let p = sim.actor(0);
        let sent = p.send_times[seq as usize - 1];
        let covered_at = p.topic_covered_at("t", seq).unwrap();
        covered_at.since(sent).as_millis_f64()
    };
    assert!(lat(&sim, s1) > 49.0, "Clemson-gated: {}", lat(&sim, s1));
    // Clemson unsubscribes; the regenerated predicate only tracks WI.
    sim.with_ctx(3, |b, ctx| b.unsubscribe_in(ctx, "t"))
        .unwrap();
    sim.run_until_idle();
    let s2 = sim
        .with_ctx(0, |b, ctx| {
            b.publish_in(ctx, "t", Bytes::from(vec![0u8; 1024]))
        })
        .unwrap();
    sim.run_until_idle();
    assert!(
        lat(&sim, s2) < 40.0,
        "WI-gated after unsubscribe: {}",
        lat(&sim, s2)
    );
}

#[test]
fn no_subscribers_means_no_tracking_predicate() {
    let mut sim = sim();
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "t")).unwrap();
    sim.run_until_idle();
    assert!(sim.actor(0).topic_frontier("t").is_some());
    sim.with_ctx(2, |b, ctx| b.unsubscribe_in(ctx, "t"))
        .unwrap();
    sim.run_until_idle();
    assert_eq!(sim.actor(0).topic_frontier("t"), None);
}

#[test]
fn late_subscriber_replays_retained_history() {
    let mut sim = sim();
    // WI subscribes so the topic has traffic; MA joins late.
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "t")).unwrap();
    sim.run_until_idle();
    for i in 0..5u8 {
        sim.with_ctx(0, |b, ctx| {
            b.publish_in(ctx, "t", Bytes::from(vec![i; 100]))
        })
        .unwrap();
    }
    sim.run_until_idle();
    assert!(sim.actor(4).deliveries().is_empty(), "not yet subscribed");
    let replayed = sim
        .with_ctx(4, |b, ctx| b.subscribe_with_replay_in(ctx, "t"))
        .unwrap();
    assert_eq!(replayed, 5, "history replayed from the retained mirror");
    assert_eq!(sim.actor(4).deliveries().len(), 5);
    // New messages flow normally after the catch-up.
    sim.run_until_idle();
    sim.with_ctx(0, |b, ctx| {
        b.publish_in(ctx, "t", Bytes::from_static(b"live"))
    })
    .unwrap();
    sim.run_until_idle();
    assert_eq!(sim.actor(4).deliveries().len(), 6);
}

#[test]
fn retention_limit_bounds_replay() {
    let mut sim = sim();
    sim.actor_mut(4).set_retain_limit(3);
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "t")).unwrap();
    sim.run_until_idle();
    for i in 0..10u8 {
        sim.with_ctx(0, |b, ctx| b.publish_in(ctx, "t", Bytes::from(vec![i; 10])))
            .unwrap();
    }
    sim.run_until_idle();
    let replayed = sim
        .with_ctx(4, |b, ctx| b.subscribe_with_replay_in(ctx, "t"))
        .unwrap();
    assert_eq!(replayed, 3, "only the retained tail replays");
}
