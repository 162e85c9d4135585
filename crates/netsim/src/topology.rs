//! Network topologies, including presets for the paper's two testbeds:
//! the emulated EC2 WAN of Table I / Fig. 2 and the CloudLab deployment
//! of Table II.

use crate::link::LinkSpec;
use crate::time::SimDuration;

/// A directed graph of WAN links between `n` named sites.
#[derive(Debug, Clone)]
pub struct NetTopology {
    names: Vec<String>,
    /// Row-major `n x n`; `None` on the diagonal and for absent links.
    links: Vec<Option<LinkSpec>>,
}

impl NetTopology {
    /// An `n`-site topology with no links yet.
    pub fn new(names: &[&str]) -> Self {
        let n = names.len();
        NetTopology {
            names: names.iter().map(|s| (*s).to_owned()).collect(),
            links: vec![None; n * n],
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the topology has no sites.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Site name by index.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Set the directed link `a -> b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn set_link(&mut self, a: usize, b: usize, spec: LinkSpec) -> &mut Self {
        assert!(a != b, "no self links");
        let n = self.len();
        self.links[a * n + b] = Some(spec);
        self
    }

    /// Set both directions of `a <-> b` to the same spec.
    pub fn set_symmetric(&mut self, a: usize, b: usize, spec: LinkSpec) -> &mut Self {
        self.set_link(a, b, spec).set_link(b, a, spec)
    }

    /// The directed link `a -> b`, if present.
    pub fn link(&self, a: usize, b: usize) -> Option<&LinkSpec> {
        self.links[a * self.len() + b].as_ref()
    }

    /// A fully connected topology of `n` sites, every link identical.
    pub fn full_mesh(n: usize, one_way: SimDuration, bytes_per_sec: f64) -> Self {
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut t = NetTopology::new(&name_refs);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    t.set_link(
                        a,
                        b,
                        LinkSpec {
                            one_way,
                            bytes_per_sec,
                            jitter: SimDuration::ZERO,
                        },
                    );
                }
            }
        }
        t
    }

    /// The emulated EC2 WAN of §VI: eight servers in four regions
    /// (Fig. 2), with the *halved* Table I throughputs the paper applies
    /// to avoid saturating its gigabit NICs.
    ///
    /// Index map: 0–1 North California (n1 is the sender), 2–5 North
    /// Virginia, 6 Oregon, 7 Ohio.
    ///
    /// Table I only reports links from North California (the sender's
    /// region). Links between the other regions use representative AWS
    /// inter-region numbers; they carry no experiment traffic since all
    /// writes originate at n1, but exist so control traffic can flow.
    pub fn ec2_fig2() -> Self {
        let mut t = NetTopology::new(&["n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"]);
        let nc: [usize; 2] = [0, 1];
        let nva: [usize; 4] = [2, 3, 4, 5];
        let oregon = 6usize;
        let ohio = 7usize;

        // Table I rows (Lat ms RTT, halved throughput Mbit/s).
        let intra_nc = LinkSpec::from_rtt_mbit(3.7, 333.5);
        let nc_nva = LinkSpec::from_rtt_mbit(64.12, 37.0);
        let nc_oregon = LinkSpec::from_rtt_mbit(23.29, 56.5);
        let nc_ohio = LinkSpec::from_rtt_mbit(53.87, 44.5);
        // Representative values for pairs Table I does not report.
        let intra_nva = LinkSpec::from_rtt_mbit(1.5, 333.5);
        let nva_oregon = LinkSpec::from_rtt_mbit(67.0, 37.0);
        let nva_ohio = LinkSpec::from_rtt_mbit(11.5, 60.0);
        let oregon_ohio = LinkSpec::from_rtt_mbit(49.0, 50.0);

        t.set_symmetric(nc[0], nc[1], intra_nc);
        for i in 0..nva.len() {
            for j in (i + 1)..nva.len() {
                t.set_symmetric(nva[i], nva[j], intra_nva);
            }
        }
        for &a in &nc {
            for &b in &nva {
                t.set_symmetric(a, b, nc_nva);
            }
            t.set_symmetric(a, oregon, nc_oregon);
            t.set_symmetric(a, ohio, nc_ohio);
        }
        for &b in &nva {
            t.set_symmetric(b, oregon, nva_oregon);
            t.set_symmetric(b, ohio, nva_ohio);
        }
        t.set_symmetric(oregon, ohio, oregon_ohio);
        t
    }

    /// The CloudLab deployment of Table II: Utah1 (sender), Utah2,
    /// Wisconsin, Clemson, Massachusetts.
    ///
    /// Table II reports links from Utah1 only; the remaining pairs use
    /// representative CloudLab inter-cluster numbers (the experiments are
    /// Utah1-centric).
    pub fn cloudlab_table2() -> Self {
        let mut t = NetTopology::new(&["UT1", "UT2", "WI", "CLEM", "MA"]);
        let (ut1, ut2, wi, clem, ma) = (0usize, 1usize, 2usize, 3usize, 4usize);
        // Table II rows: Thp (Mbit/s), Lat (ms RTT).
        t.set_symmetric(ut1, ut2, LinkSpec::from_rtt_mbit(0.124, 9246.99));
        t.set_symmetric(ut1, wi, LinkSpec::from_rtt_mbit(35.612, 361.82));
        t.set_symmetric(ut1, clem, LinkSpec::from_rtt_mbit(50.918, 416.27));
        t.set_symmetric(ut1, ma, LinkSpec::from_rtt_mbit(48.083, 437.11));
        // Utah2 shares Utah1's cluster uplink.
        t.set_symmetric(ut2, wi, LinkSpec::from_rtt_mbit(35.7, 361.82));
        t.set_symmetric(ut2, clem, LinkSpec::from_rtt_mbit(51.0, 416.27));
        t.set_symmetric(ut2, ma, LinkSpec::from_rtt_mbit(48.2, 437.11));
        // Representative east-coast/midwest pairs.
        t.set_symmetric(wi, clem, LinkSpec::from_rtt_mbit(28.0, 400.0));
        t.set_symmetric(wi, ma, LinkSpec::from_rtt_mbit(24.0, 400.0));
        t.set_symmetric(clem, ma, LinkSpec::from_rtt_mbit(20.0, 400.0));
        t
    }

    /// Return a copy of this topology with every link given uniform
    /// per-message jitter of up to `jitter` one-way — the natural
    /// variance a real WAN adds on top of a `tc` shaper.
    pub fn with_jitter(&self, jitter: SimDuration) -> Self {
        let mut t = self.clone();
        for i in 0..t.links.len() {
            if let Some(spec) = &mut t.links[i] {
                *spec = spec.with_jitter(jitter);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_preset_matches_table1() {
        let t = NetTopology::ec2_fig2();
        assert_eq!(t.len(), 8);
        // n1 -> n2 is the intra-NC link: 3.7ms RTT, 333.5 Mbit/s.
        let l = t.link(0, 1).unwrap();
        assert_eq!(l.rtt(), SimDuration::from_millis_f64(3.7));
        assert!((l.mbit_per_sec() - 333.5).abs() < 1e-9);
        // n1 -> n8 (Ohio): 53.87ms, 44.5 Mbit/s.
        let l = t.link(0, 7).unwrap();
        assert_eq!(l.rtt(), SimDuration::from_millis_f64(53.87));
        assert!((l.mbit_per_sec() - 44.5).abs() < 1e-9);
        // n1 -> n3 (North Virginia): 64.12ms, 37 Mbit/s.
        let l = t.link(0, 2).unwrap();
        assert_eq!(l.rtt(), SimDuration::from_millis_f64(64.12));
        assert!((l.mbit_per_sec() - 37.0).abs() < 1e-9);
        // Fully connected, no self links.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.link(a, b).is_some(), a != b);
            }
        }
    }

    #[test]
    fn cloudlab_preset_matches_table2() {
        let t = NetTopology::cloudlab_table2();
        assert_eq!(t.len(), 5);
        assert_eq!(t.name(0), "UT1");
        let wi = t.link(0, 2).unwrap();
        assert_eq!(wi.rtt(), SimDuration::from_millis_f64(35.612));
        assert!((wi.mbit_per_sec() - 361.82).abs() < 1e-9);
        let clem = t.link(0, 3).unwrap();
        assert_eq!(clem.rtt(), SimDuration::from_millis_f64(50.918));
        let ut2 = t.link(0, 1).unwrap();
        assert!((ut2.mbit_per_sec() - 9246.99).abs() < 1e-6);
    }

    #[test]
    fn full_mesh_links_everything() {
        let t = NetTopology::full_mesh(4, SimDuration::from_millis(1), 1e9);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.link(a, b).is_some(), a != b);
            }
        }
    }

    #[test]
    fn names_resolve() {
        let t = NetTopology::cloudlab_table2();
        assert_eq!(t.name(3), "CLEM");
        assert_eq!(t.name(4), "MA");
    }
}
