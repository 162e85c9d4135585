//! Fundamental identifier types shared by the DSL and the Stabilizer
//! control plane: WAN node ids, availability-zone ids, ACK-type ids, and
//! the [`AckView`] trait through which compiled predicates read the
//! control-plane ACK table.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

/// A message sequence number. Sequence numbers are per-origin-stream and
/// start at 1; `0` means "nothing acknowledged yet".
pub type SeqNo = u64;

/// Index of a WAN node (a data center) in the cluster topology.
///
/// The paper maps data-center names to indices when Stabilizer launches
/// (§III-C, "Operands"); `$3` in a predicate refers to `NodeId(2)` since
/// the paper's operands are 1-based while our indices are 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Index of an availability zone (a named group of WAN nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AzId(pub u16);

impl fmt::Display for AzId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "az{}", self.0)
    }
}

/// Identifier of an ACK ("stability") type.
///
/// The control plane tracks, per `(node, ack-type)`, the highest sequence
/// number acknowledged. `received` and `persisted` are built in; the
/// application can register further types (`verified`, `countersigned`,
/// ...) whose semantics Stabilizer treats as uninterpreted monotonic
/// counters (§III-C "Suffixes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AckTypeId(pub u16);

impl fmt::Display for AckTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ack{}", self.0)
    }
}

/// The built-in `received` stability level: the remote Stabilizer instance
/// has the message in its buffer.
pub const RECEIVED: AckTypeId = AckTypeId(0);
/// The built-in `persisted` stability level: the message has been written
/// to the remote storage layer.
pub const PERSISTED: AckTypeId = AckTypeId(1);
/// The built-in `delivered` stability level: the message has been handed
/// to the remote application via upcall.
pub const DELIVERED: AckTypeId = AckTypeId(2);

/// Registry interning ACK-type names to dense [`AckTypeId`]s.
///
/// Thread-safe: registration takes a write lock, lookups a read lock.
/// Lookups on the critical path should be done once at predicate compile
/// time; compiled programs carry resolved ids only.
#[derive(Debug)]
pub struct AckTypeRegistry {
    inner: RwLock<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    names: Vec<String>,
    by_name: HashMap<String, AckTypeId>,
}

impl AckTypeRegistry {
    /// Create a registry pre-populated with the built-in types
    /// `received`, `persisted`, and `delivered`.
    pub fn new() -> Self {
        let reg = AckTypeRegistry {
            inner: RwLock::new(RegistryInner {
                names: Vec::new(),
                by_name: HashMap::new(),
            }),
        };
        assert_eq!(reg.register("received"), RECEIVED);
        assert_eq!(reg.register("persisted"), PERSISTED);
        assert_eq!(reg.register("delivered"), DELIVERED);
        reg
    }

    /// Register (or look up, if already present) an ACK-type name and
    /// return its id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` ACK types are registered. The
    /// registry is left as it was and stays readable: the panic is
    /// raised after the write lock is released, so it poisons nothing.
    pub fn register(&self, name: &str) -> AckTypeId {
        let mut inner = self.inner.write().unwrap();
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let Ok(id) = u16::try_from(inner.names.len()) else {
            drop(inner);
            panic!("too many ACK types");
        };
        let id = AckTypeId(id);
        inner.names.push(name.to_owned());
        inner.by_name.insert(name.to_owned(), id);
        id
    }

    /// Look up a previously registered name.
    pub fn lookup(&self, name: &str) -> Option<AckTypeId> {
        self.inner.read().unwrap().by_name.get(name).copied()
    }

    /// Name of a registered id, if valid.
    pub fn name(&self, id: AckTypeId) -> Option<String> {
        self.inner.read().unwrap().names.get(id.0 as usize).cloned()
    }

    /// Number of registered ACK types.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().names.len()
    }

    /// Whether no types are registered (never true: built-ins always exist).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for AckTypeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for AckTypeRegistry {
    fn clone(&self) -> Self {
        let inner = self.inner.read().unwrap();
        AckTypeRegistry {
            inner: RwLock::new(RegistryInner {
                names: inner.names.clone(),
                by_name: inner.by_name.clone(),
            }),
        }
    }
}

/// Read access to the control-plane ACK table, as seen by a predicate.
///
/// `ack(node, ty)` returns the highest sequence number for which `node`
/// has reported stability level `ty`. Implementations must be monotonic
/// over time for frontier monotonicity to hold (the control plane's
/// recorder enforces this with a max-merge).
pub trait AckView {
    /// Highest sequence number acknowledged by `node` at level `ty`
    /// (0 if none).
    fn ack(&self, node: NodeId, ty: AckTypeId) -> SeqNo;
}

impl<T: AckView + ?Sized> AckView for &T {
    fn ack(&self, node: NodeId, ty: AckTypeId) -> SeqNo {
        (**self).ack(node, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_stable_ids() {
        let reg = AckTypeRegistry::new();
        assert_eq!(reg.lookup("received"), Some(RECEIVED));
        assert_eq!(reg.lookup("persisted"), Some(PERSISTED));
        assert_eq!(reg.lookup("delivered"), Some(DELIVERED));
        assert_eq!(reg.name(RECEIVED).as_deref(), Some("received"));
    }

    #[test]
    fn a_registration_past_the_last_id_leaves_the_registry_readable() {
        let reg = AckTypeRegistry::new();
        for i in 0..=u16::MAX as usize - 3 {
            reg.register(&i.to_string());
        }
        assert_eq!(reg.len(), 1 << 16);
        let overflow = std::panic::catch_unwind(|| reg.register("one too many"));
        assert!(overflow.is_err());
        assert_eq!(reg.lookup("received"), Some(RECEIVED));
        assert_eq!(reg.len(), 1 << 16);
    }

    #[test]
    fn register_is_idempotent() {
        let reg = AckTypeRegistry::new();
        let a = reg.register("verified");
        let b = reg.register("verified");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn clone_preserves_registrations() {
        let reg = AckTypeRegistry::new();
        let v = reg.register("verified");
        let reg2 = reg.clone();
        assert_eq!(reg2.lookup("verified"), Some(v));
    }

    #[test]
    fn lookup_missing_is_none() {
        let reg = AckTypeRegistry::new();
        assert_eq!(reg.lookup("countersigned"), None);
        assert_eq!(reg.name(AckTypeId(99)), None);
    }
}
