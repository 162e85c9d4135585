//! Deterministic replay with the grown fault vocabulary: the same seed
//! must produce byte-identical traces — twice in-process (trace hash
//! and telemetry trace-ring JSONL), and across processes through the
//! `chaos_demo` example's printed fingerprint.

mod acceptance;

use stabilizer_chaos::{Fault, Scenario};
use stabilizer_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::Command;

/// First seed whose benign plan draws a fault matching `pred`.
fn seed_with(pred: impl Fn(&Fault) -> bool) -> u64 {
    (0..2000u64)
        .find(|&seed| {
            Scenario::from_seed(seed)
                .plan
                .events
                .iter()
                .any(|ev| pred(&ev.fault))
        })
        .expect("some seed in 0..2000 draws the fault")
}

fn new_fault_seeds() -> [u64; 3] {
    [
        seed_with(|f| matches!(f, Fault::ClockSkew { .. })),
        seed_with(|f| matches!(f, Fault::DupReorder { .. })),
        seed_with(|f| matches!(f, Fault::CorrelatedCrash { .. })),
    ]
}

#[test]
fn new_faults_replay_byte_identically_in_process() {
    for seed in new_fault_seeds() {
        let run = || {
            let t = Telemetry::new_sim_with_trace(4096);
            let s = Scenario::from_seed(seed);
            let report = s
                .run_with_telemetry(t.clone())
                .unwrap_or_else(|f| panic!("seed {seed} should run clean: {f}"));
            (report.trace_hash, t.trace().to_jsonl())
        };
        let (h1, j1) = run();
        let (h2, j2) = run();
        assert_eq!(h1, h2, "seed {seed}: trace hash differs across runs");
        assert_eq!(j1, j2, "seed {seed}: trace-ring JSONL differs across runs");
        assert!(!j1.is_empty(), "seed {seed}: trace ring captured nothing");
    }
}

/// The `chaos_demo` fingerprints — `(seed, trace hash, trace events)` —
/// of every seed it is checked on: 1–20, and 503 and 538, the two
/// stalls chaos found in PR 7. Every refactor of the harness, the
/// drivers and the core has been compared against them since PR 12
/// (re-measured in PR 19, whose varint codec changed every message's
/// size — sizes enter link serialization time; seed 503 in PR 45, when
/// reinstating one excluded node stopped re-admitting the others; and
/// seeds 3, 6, 10, 11, 12, 14, 18 and 503 in PR 46, when a restored
/// node became fenced until its replicas report; seeds 10 and 12 again
/// when the fence started lifting as soon as they have, the origin
/// reporting the mark it resumes at). If a change is
/// *meant* to alter what a run observes, re-measure and say so;
/// otherwise a moved hash is a behaviour change.
#[test]
fn pinned_seeds_replay_to_their_recorded_trace_hashes() {
    for (seed, hash, events) in [
        (1, 0xf6f5_6370_c475_5823u64, 114usize),
        (2, 0x12b9_4ab2_582f_c8bb, 110),
        (3, 0xddab_8ba2_a3e2_eb9f, 88),
        (4, 0xf2f1_4240_2dee_b3f8, 106),
        (5, 0x66d0_8d45_50ee_a311, 77),
        (6, 0x5495_7fda_3e5a_062a, 364),
        (7, 0x0422_02b2_9f64_0289, 251),
        (8, 0x2e2c_1bb6_4bef_e460, 56),
        (9, 0x82eb_1eb2_8a0f_ada2, 121),
        (10, 0xcca1_c0b3_4732_b9b5, 281),
        (11, 0xc01a_bb68_2eb3_da65, 594),
        (12, 0xc8ae_a510_73e1_eff9, 79),
        (13, 0x2d1d_d495_a99d_4d79, 158),
        (14, 0xb541_94ab_4ab9_cedc, 54),
        (15, 0xc98d_9dd4_3ae1_1ed2, 105),
        (16, 0xe81a_a2a8_037f_915a, 112),
        (17, 0xd1f1_c2ca_4f86_5ec3, 44),
        (18, 0x3ceb_c2ca_18c3_f1a7, 238),
        (19, 0x54c0_3edf_29f2_6116, 50),
        (20, 0x14bc_8e53_25e6_a0ad, 46),
        (503, 0x71f5_20cf_049c_db11, 157),
        (538, 0xadd9_9e04_3008_6fc5, 87),
    ] {
        let report = Scenario::from_seed(seed)
            .run()
            .unwrap_or_else(|f| panic!("seed {seed} should run clean: {f}"));
        assert_eq!(
            (format!("{:016x}", report.trace_hash), report.trace_events),
            (format!("{hash:016x}"), events),
            "seed {seed} no longer replays to its pinned trace"
        );
    }
}

/// The TCP backend runs the real transport on the in-memory net in
/// virtual time, so its runs hash like the simulator's: `tcp_chaos.rs`'s
/// acceptance scenario (partition, asymmetric loss, crash/restart) at
/// seed 42 — CI's smoke seed — twice in-process, and against its pin.
/// A moved hash is a behaviour change of the transport, the runtime,
/// the core or the net; re-measure only when that is meant.
#[test]
fn tcp_acceptance_replays_to_its_pinned_trace_hash() {
    let (.., first) = acceptance::run_acceptance(42);
    let (.., second) = acceptance::run_acceptance(42);
    assert_eq!(first, second, "the TCP acceptance run is not deterministic");
    assert_eq!(
        format!("{first:016x}"),
        "2446e5292a8f9c6d",
        "the TCP acceptance run no longer replays to its pinned trace"
    );
}

#[test]
fn byzantine_violation_is_deterministic() {
    let s = Scenario::from_seed_byzantine(7);
    let a = s.run().expect_err("byzantine scenario trips");
    let b = s.run().expect_err("byzantine scenario trips");
    // The violation — time, node, property, and the full detail string —
    // is part of the determinism contract: a forged-ack counterexample
    // replays exactly.
    assert_eq!(a.violation, b.violation);
}

/// Locate (building if necessary) the `chaos_demo` example binary.
fn chaos_demo_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // debug/
    p.push("examples");
    p.push(format!("chaos_demo{}", std::env::consts::EXE_SUFFIX));
    if !p.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "-p", "stabilizer-chaos", "--example", "chaos_demo"])
            .status()
            .expect("spawn cargo build for chaos_demo");
        assert!(status.success(), "building chaos_demo failed");
    }
    assert!(p.exists(), "chaos_demo binary not found at {}", p.display());
    p
}

#[test]
fn exemplars_replay_byte_identically_in_process() {
    // Exemplars stamp virtual-clock nanos and trace-ring cursors, so on
    // the simulator two runs of the same seed must render the same
    // bytes — across the JSON export, the exemplar sub-document, and
    // the OpenMetrics text with `# {...}` bucket suffixes.
    for seed in [
        503,
        538,
        seed_with(|f| matches!(f, Fault::ClockSkew { .. })),
    ] {
        let run = || {
            let t = Telemetry::new_sim_with_trace(4096);
            Scenario::from_seed(seed)
                .run_with_telemetry(t.clone())
                .unwrap_or_else(|f| panic!("seed {seed} should run clean: {f}"));
            (
                t.render_json(),
                t.render_exemplars_json(),
                t.render_prometheus(),
            )
        };
        let (j1, e1, p1) = run();
        let (j2, e2, p2) = run();
        assert_eq!(j1, j2, "seed {seed}: metrics JSON differs across runs");
        assert_eq!(e1, e2, "seed {seed}: exemplar JSON differs across runs");
        assert_eq!(p1, p2, "seed {seed}: Prometheus text differs across runs");
        assert!(
            e1.contains("\"trace_cursor\""),
            "seed {seed}: run captured no exemplars: {e1}"
        );
        assert!(
            p1.contains(" # {trace_id=\""),
            "seed {seed}: no OpenMetrics exemplar suffix rendered"
        );
    }
}

#[test]
fn exemplars_replay_byte_identically_across_processes() {
    let bin = chaos_demo_bin();
    let dir = std::env::temp_dir().join(format!("stab_exemplar_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run = |tag: &str| -> (String, String) {
        let path = dir.join(format!("metrics_{tag}.json"));
        let out = Command::new(&bin)
            .arg("503")
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .expect("run chaos_demo");
        assert!(
            out.status.success(),
            "chaos_demo failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&path).expect("read metrics json");
        let prom =
            std::fs::read_to_string(format!("{}.prom", path.display())).expect("read prom text");
        (json, prom)
    };
    let (j1, p1) = run("a");
    let (j2, p2) = run("b");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(j1, j2, "cross-process metrics JSON diverged");
    assert_eq!(p1, p2, "cross-process Prometheus text diverged");
    assert!(
        j1.contains("\"exemplars\""),
        "JSON export carries exemplars"
    );
    // And the subprocess bytes match an in-process run of the same seed.
    let t = Telemetry::new_sim_with_trace(4096);
    Scenario::from_seed(503)
        .run_with_telemetry(t.clone())
        .expect("seed 503 runs clean");
    assert_eq!(
        j1,
        t.render_json(),
        "subprocess and in-process JSON diverged"
    );
}

#[test]
fn chaos_demo_prints_the_same_hash_across_processes() {
    let bin = chaos_demo_bin();
    let seed = seed_with(|f| matches!(f, Fault::CorrelatedCrash { .. }));
    let run = |seed: u64| -> String {
        let out = Command::new(&bin)
            .arg(seed.to_string())
            .output()
            .expect("run chaos_demo");
        assert!(
            out.status.success(),
            "chaos_demo seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        stdout
            .lines()
            .find_map(|l| l.split("trace_hash=").nth(1))
            .expect("chaos_demo printed a trace hash")
            .split_whitespace()
            .next()
            .unwrap()
            .to_owned()
    };
    let first = run(seed);
    let second = run(seed);
    assert_eq!(first, second, "cross-process trace hashes diverged");
    // And the subprocess agrees with an in-process run of the same seed.
    let report = Scenario::from_seed(seed).run().expect("runs clean");
    assert_eq!(
        first,
        format!("{:016x}", report.trace_hash),
        "chaos_demo and in-process hash diverged"
    );
}
