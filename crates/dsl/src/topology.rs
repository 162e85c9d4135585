//! Cluster topology: the list of WAN nodes (data centers) and their
//! grouping into availability zones, as declared in the Stabilizer
//! configuration file (§III-C, "Operands").
//!
//! The DSL resolver uses the topology to expand macros
//! (`$ALLWNODES`, `$MYAZWNODES`, `$MYWNODE`) and variables
//! (`$WNODE_name`, `$AZ_name`) into concrete node sets.

use crate::error::DslError;
use crate::types::{AzId, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Immutable description of the WAN deployment: node names in index order
/// and availability-zone membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    node_names: Vec<String>,
    az_names: Vec<String>,
    /// az of each node, indexed by NodeId.
    node_az: Vec<AzId>,
    /// members of each az, indexed by AzId, sorted.
    az_members: Vec<Vec<NodeId>>,
    node_by_name: HashMap<String, NodeId>,
    az_by_name: HashMap<String, AzId>,
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Total number of WAN nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Resolve a node name to its id.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.node_by_name.get(name).copied()
    }

    /// Resolve an availability-zone name to its id.
    pub fn az(&self, name: &str) -> Option<AzId> {
        self.az_by_name.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0 as usize]
    }

    /// Name of an availability zone.
    pub fn az_name(&self, id: AzId) -> &str {
        &self.az_names[id.0 as usize]
    }

    /// Availability zone of a node.
    pub fn az_of(&self, node: NodeId) -> AzId {
        self.node_az[node.0 as usize]
    }

    /// Members of an availability zone, sorted by node id.
    pub fn az_members(&self, az: AzId) -> &[NodeId] {
        &self.az_members[az.0 as usize]
    }

    /// All node ids, in index order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as u16).map(NodeId).collect()
    }

    /// Iterate over `(AzId, members)` pairs.
    pub fn azs(&self) -> impl Iterator<Item = (AzId, &[NodeId])> {
        self.az_members
            .iter()
            .enumerate()
            .map(|(i, m)| (AzId(i as u16), m.as_slice()))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (az, members) in self.azs() {
            write!(f, "{}: [", self.az_name(az))?;
            for (i, m) in members.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.node_name(*m))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Builder for [`Topology`]. Add availability zones in order; node ids are
/// assigned in declaration order (matching the paper's "rank in the
/// overall list").
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    azs: Vec<(String, Vec<String>)>,
}

/// The error for a topology with more `what` than a `u16` id numbers.
fn too_many(what: &str) -> DslError {
    DslError::Topology(format!("more than {} {what}", u32::from(u16::MAX) + 1))
}

impl TopologyBuilder {
    /// Declare an availability zone named `az_name` containing `nodes`.
    pub fn az(mut self, az_name: &str, nodes: &[&str]) -> Self {
        self.azs.push((
            az_name.to_owned(),
            nodes.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Finish building.
    ///
    /// # Errors
    ///
    /// Fails on duplicate node or AZ names, empty AZs, an empty
    /// topology, or more nodes or AZs than a `u16` id can number.
    pub fn build(self) -> Result<Topology, DslError> {
        if self.azs.is_empty() {
            return Err(DslError::Topology(
                "topology has no availability zones".into(),
            ));
        }
        let mut t = Topology {
            node_names: Vec::new(),
            az_names: Vec::new(),
            node_az: Vec::new(),
            az_members: Vec::new(),
            node_by_name: HashMap::new(),
            az_by_name: HashMap::new(),
        };
        for (az_name, nodes) in self.azs {
            if nodes.is_empty() {
                return Err(DslError::Topology(format!(
                    "availability zone {az_name} is empty"
                )));
            }
            if t.az_by_name.contains_key(&az_name) {
                return Err(DslError::Topology(format!(
                    "duplicate availability zone {az_name}"
                )));
            }
            let az =
                AzId(u16::try_from(t.az_names.len()).map_err(|_| too_many("availability zones"))?);
            t.az_names.push(az_name.clone());
            t.az_by_name.insert(az_name, az);
            let mut members = Vec::new();
            for node_name in nodes {
                if t.node_by_name.contains_key(&node_name) {
                    return Err(DslError::Topology(format!("duplicate node {node_name}")));
                }
                let id = NodeId(u16::try_from(t.node_names.len()).map_err(|_| too_many("nodes"))?);
                t.node_names.push(node_name.clone());
                t.node_by_name.insert(node_name, id);
                t.node_az.push(az);
                members.push(id);
            }
            t.az_members.push(members);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::builder()
            .az("East", &["e1", "e2"])
            .az("West", &["w1", "w2", "w3"])
            .build()
            .unwrap()
    }

    #[test]
    fn indices_follow_declaration_order() {
        let t = topo();
        assert_eq!(t.node("e1"), Some(NodeId(0)));
        assert_eq!(t.node("w3"), Some(NodeId(4)));
        assert_eq!(t.az("West"), Some(AzId(1)));
        assert_eq!(t.num_nodes(), 5);
    }

    #[test]
    fn az_membership() {
        let t = topo();
        assert_eq!(t.az_of(NodeId(0)), AzId(0));
        assert_eq!(t.az_of(NodeId(4)), AzId(1));
        assert_eq!(t.az_members(AzId(1)), &[NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Topology::builder()
            .az("A", &["x"])
            .az("A", &["y"])
            .build()
            .is_err());
        assert!(Topology::builder().az("A", &["x", "x"]).build().is_err());
        assert!(Topology::builder()
            .az("A", &["x"])
            .az("B", &["x"])
            .build()
            .is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Topology::builder().build().is_err());
        assert!(Topology::builder().az("A", &[]).build().is_err());
    }

    #[test]
    fn display_lists_zones() {
        let t = topo();
        let s = t.to_string();
        assert!(s.contains("East: [e1, e2]"));
        assert!(s.contains("West: [w1, w2, w3]"));
    }
}
