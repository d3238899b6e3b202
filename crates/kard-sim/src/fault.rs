//! Simulated General Protection Fault (#GP) descriptors.
//!
//! When a memory access violates the accessing thread's PKRU, real hardware
//! raises a #GP and the kernel delivers a signal carrying the faulting
//! address, the protection key, and the saved process context. Kard's fault
//! handler consumes exactly that information (§5.5), so [`GpFault`] carries
//! the same fields.

use crate::keys::ProtectionKey;
use crate::mem::{VirtAddr, VirtPage};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of memory access: load or store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store. Per the data race definition (§2.1), at least one of two
    /// conflicting accesses must be a write.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// An identifier for a program location (instruction pointer analog).
///
/// Kard's compiler pass passes the virtual address of each synchronization
/// call site to its wrapper functions to tell critical sections apart
/// (§5.3); the simulator uses opaque site identifiers for the same purpose.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct CodeSite(pub u64);

impl fmt::Debug for CodeSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip:{:#x}", self.0)
    }
}

/// A simulated MPK protection fault.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GpFault {
    /// Thread whose access faulted.
    pub thread: crate::cpu::ThreadId,
    /// The faulting virtual address.
    pub addr: VirtAddr,
    /// The page containing the faulting address.
    pub page: VirtPage,
    /// The protection key tagged on the faulting page.
    pub pkey: ProtectionKey,
    /// Whether the faulting access was a read or a write.
    pub access: AccessKind,
    /// Program location of the faulting access (process context analog).
    pub ip: CodeSite,
    /// Virtual timestamp (RDTSCP analog) at which the fault was raised.
    pub tsc: u64,
    /// Number of faults the machine raised before this one: the raise's
    /// place in the order §5.5's timestamp check compares key releases
    /// against (see [`crate::Machine::faults_raised`]).
    pub seq: u64,
}

impl fmt::Display for GpFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#GP: thread {} {} at {} (key {}, {:?}, tsc {})",
            self.thread.0, self.access, self.addr, self.pkey, self.ip, self.tsc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::ThreadId;

    #[test]
    fn fault_display_mentions_key_and_kind() {
        let fault = GpFault {
            thread: ThreadId(2),
            addr: VirtAddr(0x5000),
            page: VirtAddr(0x5000).page(),
            pkey: ProtectionKey(7),
            access: AccessKind::Write,
            ip: CodeSite(0x40_0000),
            tsc: 123,
            seq: 0,
        };
        let text = fault.to_string();
        assert!(text.contains("write"));
        assert!(text.contains("k7"));
        assert!(text.contains("0x5000"));
    }

    #[test]
    fn access_kind_display() {
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }
}
