//! `stabilizer-node` — run one WAN node of a real Stabilizer deployment
//! from the command line, with an interactive console for publishing and
//! inspecting stability frontiers.
//!
//! ```text
//! stabilizer-node <config-file> <my-node-name> <listen-addr> \
//!     [<peer-name>=<addr> ...] [--serve <addr>]
//! ```
//!
//! Example (three shells on one machine):
//!
//! ```text
//! stabilizer-node cluster.cfg e1 127.0.0.1:7001 e2=127.0.0.1:7002 w1=127.0.0.1:7003
//! stabilizer-node cluster.cfg e2 127.0.0.1:7002 e1=127.0.0.1:7001 w1=127.0.0.1:7003
//! stabilizer-node cluster.cfg w1 127.0.0.1:7003 e1=127.0.0.1:7001 e2=127.0.0.1:7002
//! ```
//!
//! Console commands: `pub <text>`, `frontier <predicate>`,
//! `wait <predicate> <seq>`, `register <key> <predicate...>`,
//! `change <key> <predicate...>`, `catchup`, `metrics`, `help`, `quit`.
//!
//! With `option transfer_millis` set in the config, a node that boots
//! late (or restarts after a crash long enough to be evicted from its
//! peers' send buffers) automatically requests §III-E state transfer at
//! startup; `catchup` re-requests it by hand.
//!
//! With `--serve <addr>`, the node attaches a telemetry hub and exposes
//! it live over HTTP — `/metrics` (Prometheus text with exemplars),
//! `/metrics.json`, `/trace` (event-ring JSONL tail), and `/stall`
//! (frontier blame diagnosis). Point `stabtop` at it.

use bytes::Bytes;
use stabilizer::telemetry::Telemetry;
use stabilizer::transport::{spawn_node_with, SpawnOptions};
use stabilizer::{AckTypeRegistry, ClusterConfig};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let serve_addr = match args.iter().position(|a| a == "--serve") {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err("--serve needs an address".into());
            }
            args.remove(i);
            Some(args.remove(i))
        }
        None => None,
    };
    if args.len() < 3 {
        return Err(
            "usage: stabilizer-node <config> <name> <listen-addr> [peer=addr ...] [--serve <addr>]"
                .into(),
        );
    }
    let cfg_text = std::fs::read_to_string(&args[0])?;
    let cfg = ClusterConfig::parse(&cfg_text)?;
    let me = cfg
        .topology()
        .node(&args[1])
        .ok_or_else(|| format!("node {:?} not in the configuration", args[1]))?;
    let listener = TcpListener::bind(&args[2])?;

    let mut peer_addrs = Vec::new();
    for spec in &args[3..] {
        let (name, addr) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad peer spec {spec:?}"))?;
        let id = cfg
            .topology()
            .node(name)
            .ok_or_else(|| format!("peer {name:?} not in the configuration"))?;
        peer_addrs.push((id, addr.parse()?));
    }
    for peer in cfg.peers(me) {
        if !peer_addrs.iter().any(|(id, _)| *id == peer) {
            return Err(format!(
                "missing address for peer {}",
                cfg.topology().node_name(peer)
            )
            .into());
        }
    }

    let telemetry = serve_addr.as_ref().map(|_| Telemetry::new_wall_clock());
    let opts = SpawnOptions {
        observer: telemetry
            .as_ref()
            .map(|t| Box::new(t.observer(me)) as Box<dyn stabilizer::core::AppHooks + Send>),
        telemetry: telemetry.clone(),
        serve_addr,
        ..SpawnOptions::default()
    };
    let node = spawn_node_with(
        cfg.clone(),
        me,
        Arc::new(AckTypeRegistry::new()),
        listener,
        peer_addrs,
        opts,
    )?;
    let h = node.handle();
    println!("node {} up, listening on {}", args[1], args[2]);
    if let Some(addr) = h.serve_addr() {
        println!("telemetry: http://{addr} — /metrics /metrics.json /trace /stall");
    }

    // Echo deliveries and frontier advances to the console.
    {
        let topo = Arc::clone(cfg.topology());
        h.on_deliver(move |origin, seq, payload| {
            println!(
                "<- {}/{}: {}",
                topo.node_name(origin),
                seq,
                String::from_utf8_lossy(payload)
            );
        });
    }
    for (key, _) in cfg.predicates() {
        h.monitor_stability_frontier(me, key, {
            let key = key.to_owned();
            move |u| println!(".. {key} -> {} (gen {})", u.seq, u.generation)
        });
    }
    // §III-E: if state transfer is configured, ask the stream origins
    // for snapshot + retained-log catch-up right away — a node booting
    // into an already-running cluster recovers whatever it missed.
    if cfg.options().transfer_millis > 0 {
        h.begin_catch_up();
        println!("state transfer armed; requesting catch-up from peers");
    }

    let stdin = std::io::stdin();
    print!("> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = line?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("pub") => {
                let text = line.split_once(' ').map(|x| x.1).unwrap_or("").to_owned();
                let len = text.len();
                match h.publish(Bytes::from(text), Duration::from_secs(5)) {
                    Ok(seq) => {
                        if let Some(t) = &telemetry {
                            t.note_publish_now(me, seq, len);
                        }
                        println!("published as seq {seq}");
                    }
                    Err(e) => println!("publish failed: {e}"),
                }
            }
            Some("frontier") => match parts.next() {
                Some(key) => match h.stability_frontier(me, key) {
                    Some((seq, generation)) => println!("{key} = {seq} (gen {generation})"),
                    None => println!("unknown predicate {key:?}"),
                },
                None => println!("usage: frontier <predicate>"),
            },
            Some("wait") => {
                let (Some(key), Some(seq)) = (parts.next(), parts.next()) else {
                    println!("usage: wait <predicate> <seq>");
                    print!("> ");
                    std::io::stdout().flush().ok();
                    continue;
                };
                match seq.parse::<u64>() {
                    Ok(seq) => match h.waitfor(me, key, seq, Duration::from_secs(30)) {
                        Ok(true) => println!("{key} reached {seq}"),
                        Ok(false) => println!("timed out"),
                        Err(e) => println!("error: {e}"),
                    },
                    Err(_) => println!("bad sequence number"),
                }
            }
            Some(cmd @ ("register" | "change")) => {
                let key = parts.next();
                let rest: Vec<&str> = parts.collect();
                match (key, rest.is_empty()) {
                    (Some(key), false) => {
                        let src = rest.join(" ");
                        let r = if cmd == "register" {
                            h.register_predicate(me, key, &src)
                        } else {
                            h.change_predicate(me, key, &src)
                        };
                        match r {
                            Ok(()) => println!(
                                "{} {key}",
                                if cmd == "register" {
                                    "registered"
                                } else {
                                    "changed"
                                }
                            ),
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    _ => println!("usage: {cmd} <key> <predicate...>"),
                }
            }
            Some("catchup") => {
                h.begin_catch_up();
                println!("catch-up requested from all stream origins");
            }
            Some("metrics") => {
                let m = h.metrics();
                println!(
                    "data: {} msgs / {} bytes out, {} delivered; control: {} msgs, {} acks out, {} acks in ({} stale)",
                    m.data_msgs_sent,
                    m.data_bytes_sent,
                    m.deliveries,
                    m.control_msgs_sent,
                    m.acks_sent,
                    m.acks_received,
                    m.acks_stale
                );
            }
            Some("help") => {
                println!("commands: pub <text> | frontier <key> | wait <key> <seq> | register <key> <pred> | change <key> <pred> | catchup | metrics | quit");
            }
            Some("quit") | Some("exit") => break,
            Some(other) => println!("unknown command {other:?} (try `help`)"),
            None => {}
        }
        print!("> ");
        std::io::stdout().flush().ok();
    }
    h.shutdown();
    Ok(())
}
