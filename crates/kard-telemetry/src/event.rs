//! The structured event vocabulary of the detector fault path.
//!
//! Events are fixed-size plain-data records: a virtual-clock timestamp, the
//! acting thread, a kind tag, and two kind-specific `u64` payloads. The
//! fixed shape is what lets the recording path write an event with a
//! handful of relaxed atomic stores and no heap allocation; the meaning of
//! `a` and `b` per kind is documented on [`EventKind`].

/// Payload value of [`EventKind::KeyGrant`] `b` for a proactive
/// acquisition performed at section entry (§5.4).
pub const GRANT_PROACTIVE: u64 = 0;
/// Payload value of [`EventKind::KeyGrant`] `b` for a reactive acquisition
/// performed by the fault handler (§5.4).
pub const GRANT_REACTIVE: u64 = 1;

/// Protection-domain code carried by [`EventKind::DomainMigration`]
/// payloads (the pool key of a Read-write domain travels separately in the
/// high bits, see [`pack_domains`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum DomainCode {
    /// The Not-accessed domain (`k_na`).
    NotAccessed = 0,
    /// The Read-only domain (`k_ro`).
    ReadOnly = 1,
    /// The Read-write domain (a pool key).
    ReadWrite = 2,
    /// Protection suspended while an interleaving winds down (§5.5).
    Suspended = 3,
}

impl DomainCode {
    /// Decode a raw code, if valid.
    #[must_use]
    pub fn from_raw(raw: u64) -> Option<DomainCode> {
        match raw {
            0 => Some(DomainCode::NotAccessed),
            1 => Some(DomainCode::ReadOnly),
            2 => Some(DomainCode::ReadWrite),
            3 => Some(DomainCode::Suspended),
            _ => None,
        }
    }
}

/// Pack a domain migration's source and destination into one `u64` payload:
/// `from` in bits 0–7, `to` in bits 8–15.
#[must_use]
pub fn pack_domains(from: DomainCode, to: DomainCode) -> u64 {
    from as u64 | (to as u64) << 8
}

/// Unpack a [`pack_domains`] payload back into `(from, to)`.
#[must_use]
pub fn unpack_domains(b: u64) -> Option<(DomainCode, DomainCode)> {
    Some((DomainCode::from_raw(b & 0xff)?, DomainCode::from_raw((b >> 8) & 0xff)?))
}

/// What happened. Payload meaning (`a`, `b`) per kind:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `SectionEnter` | section site | sections concurrently active (incl. this) |
/// | `SectionExit` | section site | hold time in cycles |
/// | `ObjectAlloc` / `ObjectGlobal` | object id | size in bytes |
/// | `ObjectFree` | object id | — |
/// | `DomainMigration` | object id | [`pack_domains`]`(from, to)` |
/// | `KeyGrant` | key | [`GRANT_PROACTIVE`] or [`GRANT_REACTIVE`] |
/// | `KeyRecycle` | key | objects evicted |
/// | `KeyShare` | key | — |
/// | `FaultEnter` | faulting address | faulting key |
/// | `FaultResolve` | handling latency in cycles | 0 retry / 1 emulated |
/// | `FaultIdentify` | object id | 0 read / 1 write |
/// | `FaultMigrate` | object id | — |
/// | `FaultRaceCheck` | object id | 0 unlocked-RO / 1 pool conflict / 2 recent release / 3 revival logical-holder |
/// | `FaultInterleave` | object id | — |
/// | `TimestampFiltered` | key | — |
/// | `InterleaveArm` | object id | interleaved key |
/// | `InterleaveFinish` | object id | restored original key |
/// | `InterleaveExpire` | object id | — |
/// | `RaceReport` | object id | faulting thread |
/// | `RacePruneOffset` | object id | — |
/// | `RacePruneRedundant` | object id | — |
/// | `VKeyHit` | virtual key | hardware key |
/// | `VKeyMiss` | virtual key | hardware key bound (fill or revival) |
/// | `VKeyEvict` | evicted virtual key | objects demoted |
/// | `AllocSlabRefill` | rounded size in bytes | slots provisioned |
/// | `RemoteFreePush` | object id | owning thread |
/// | `RemoteFreeDrain` | slots drained | pages retired |
/// | `FaultShardContended` | fault-shard index | faults in flight (incl. this) |
/// | `VKeyDemoteBatch` | evicted virtual key | live objects demoted in the grouped `pkey_mprotect` |
/// | `BudgetSkip` | object id left unprotected | side-metadata heat at decision time |
/// | `BudgetAdjust` | new sample permille | new hotness threshold |
/// | `BudgetBackoff` | 1 entering / 0 leaving backoff | observed overhead in permille |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // The table above is the per-variant documentation.
pub enum EventKind {
    SectionEnter = 0,
    SectionExit = 1,
    ObjectAlloc = 2,
    ObjectGlobal = 3,
    ObjectFree = 4,
    DomainMigration = 5,
    KeyGrant = 6,
    KeyRecycle = 7,
    KeyShare = 8,
    FaultEnter = 9,
    FaultResolve = 10,
    FaultIdentify = 11,
    FaultMigrate = 12,
    FaultRaceCheck = 13,
    FaultInterleave = 14,
    TimestampFiltered = 15,
    InterleaveArm = 16,
    InterleaveFinish = 17,
    InterleaveExpire = 18,
    RaceReport = 19,
    RacePruneOffset = 20,
    RacePruneRedundant = 21,
    VKeyHit = 22,
    VKeyMiss = 23,
    VKeyEvict = 24,
    AllocSlabRefill = 25,
    RemoteFreePush = 26,
    RemoteFreeDrain = 27,
    FaultShardContended = 28,
    VKeyDemoteBatch = 29,
    BudgetSkip = 30,
    BudgetAdjust = 31,
    BudgetBackoff = 32,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 33] = [
        EventKind::SectionEnter,
        EventKind::SectionExit,
        EventKind::ObjectAlloc,
        EventKind::ObjectGlobal,
        EventKind::ObjectFree,
        EventKind::DomainMigration,
        EventKind::KeyGrant,
        EventKind::KeyRecycle,
        EventKind::KeyShare,
        EventKind::FaultEnter,
        EventKind::FaultResolve,
        EventKind::FaultIdentify,
        EventKind::FaultMigrate,
        EventKind::FaultRaceCheck,
        EventKind::FaultInterleave,
        EventKind::TimestampFiltered,
        EventKind::InterleaveArm,
        EventKind::InterleaveFinish,
        EventKind::InterleaveExpire,
        EventKind::RaceReport,
        EventKind::RacePruneOffset,
        EventKind::RacePruneRedundant,
        EventKind::VKeyHit,
        EventKind::VKeyMiss,
        EventKind::VKeyEvict,
        EventKind::AllocSlabRefill,
        EventKind::RemoteFreePush,
        EventKind::RemoteFreeDrain,
        EventKind::FaultShardContended,
        EventKind::VKeyDemoteBatch,
        EventKind::BudgetSkip,
        EventKind::BudgetAdjust,
        EventKind::BudgetBackoff,
    ];

    /// Decode a raw discriminant, if valid.
    #[must_use]
    pub fn from_raw(raw: u64) -> Option<EventKind> {
        EventKind::ALL.get(raw as usize).copied()
    }

    /// Stable human-readable name (used by both exporters).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SectionEnter => "section_enter",
            EventKind::SectionExit => "section_exit",
            EventKind::ObjectAlloc => "object_alloc",
            EventKind::ObjectGlobal => "object_global",
            EventKind::ObjectFree => "object_free",
            EventKind::DomainMigration => "domain_migration",
            EventKind::KeyGrant => "key_grant",
            EventKind::KeyRecycle => "key_recycle",
            EventKind::KeyShare => "key_share",
            EventKind::FaultEnter => "fault_enter",
            EventKind::FaultResolve => "fault_resolve",
            EventKind::FaultIdentify => "fault_identify",
            EventKind::FaultMigrate => "fault_migrate",
            EventKind::FaultRaceCheck => "fault_race_check",
            EventKind::FaultInterleave => "fault_interleave",
            EventKind::TimestampFiltered => "timestamp_filtered",
            EventKind::InterleaveArm => "interleave_arm",
            EventKind::InterleaveFinish => "interleave_finish",
            EventKind::InterleaveExpire => "interleave_expire",
            EventKind::RaceReport => "race_report",
            EventKind::RacePruneOffset => "race_prune_offset",
            EventKind::RacePruneRedundant => "race_prune_redundant",
            EventKind::VKeyHit => "vkey_hit",
            EventKind::VKeyMiss => "vkey_miss",
            EventKind::VKeyEvict => "vkey_evict",
            EventKind::AllocSlabRefill => "alloc_slab_refill",
            EventKind::RemoteFreePush => "remote_free_push",
            EventKind::RemoteFreeDrain => "remote_free_drain",
            EventKind::FaultShardContended => "fault_shard_contended",
            EventKind::VKeyDemoteBatch => "vkey_demote_batch",
            EventKind::BudgetSkip => "budget_skip",
            EventKind::BudgetAdjust => "budget_adjust",
            EventKind::BudgetBackoff => "budget_backoff",
        }
    }
}

/// One recorded telemetry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual-clock timestamp at recording time (global clock, cycles).
    pub tsc: u64,
    /// Acting thread (dense detector thread index).
    pub thread: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload (see [`EventKind`]).
    pub a: u64,
    /// Second payload (see [`EventKind`]).
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_raw() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_raw(kind as u64), Some(kind));
        }
        assert_eq!(EventKind::from_raw(EventKind::ALL.len() as u64), None);
    }

    #[test]
    fn domain_packing_round_trips() {
        let b = pack_domains(DomainCode::NotAccessed, DomainCode::ReadWrite);
        assert_eq!(
            unpack_domains(b),
            Some((DomainCode::NotAccessed, DomainCode::ReadWrite))
        );
        assert_eq!(unpack_domains(0xff), None);
    }
}
