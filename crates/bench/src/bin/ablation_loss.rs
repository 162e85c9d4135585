//! Ablation: the §III-A reliability mechanism under packet loss — how
//! stabilization time and retransmission overhead grow with the loss
//! rate. (The paper assumes lossless FIFO transport provided by its own
//! "basic reliability mechanism"; this quantifies that mechanism.)

use bytes::Bytes;
use stabilizer_bench::{f, print_table};
use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{ClusterConfig, NodeId, Options};
use stabilizer_netsim::{NetTopology, SimDuration};

const COUNT: u64 = 200;

fn run(loss: f64) -> (f64, u64, u64) {
    let opts = Options::default().retransmit_millis(50);
    let cfg = ClusterConfig::parse("az A a b\naz B c d\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .expect("static config")
        .with_options(opts);
    let net = NetTopology::full_mesh(4, SimDuration::from_millis(10), 1e9);
    let mut sim = build_cluster(&cfg, net, 42).expect("cfg valid");
    for a in 0..4 {
        for b in 0..4 {
            if a != b {
                sim.set_link_loss(a, b, loss);
            }
        }
    }
    for i in 0..COUNT {
        sim.with_ctx(0, |n, ctx| {
            n.publish_in(ctx, Bytes::from(vec![i as u8; 1024]))
        })
        .expect("publish");
    }
    let deadline = sim.now() + SimDuration::from_secs(300);
    loop {
        sim.run_for(SimDuration::from_millis(100));
        let (frontier, _) = sim
            .actor(0)
            .inner()
            .stability_frontier(NodeId(0), "All")
            .unwrap();
        if frontier >= COUNT || sim.now() >= deadline {
            break;
        }
    }
    let done_at = sim
        .actor(0)
        .covered_at(NodeId(0), "All", COUNT)
        .map_or(f64::NAN, |t| t.as_secs_f64());
    (
        done_at,
        sim.actor(0).inner().metrics().retransmits,
        sim.dropped(),
    )
}

fn main() {
    let mut rows = Vec::new();
    for loss_pct in [0u32, 1, 5, 10, 20, 30] {
        let (t, retransmits, dropped) = run(loss_pct as f64 / 100.0);
        rows.push(vec![
            format!("{loss_pct}%"),
            f(t, 3),
            retransmits.to_string(),
            dropped.to_string(),
        ]);
    }
    print_table(
        &format!("Reliability ablation: {COUNT} x 1 KiB messages to full WAN stability (RTT 20 ms, go-back-N @ 50 ms)"),
        &["loss rate", "all stable (s)", "retransmits", "msgs dropped"],
        &rows,
    );
}
