//! Identifier newtypes for processes, messages, and timers.
//!
//! The paper models the system as a set of processes `P = {1, 2, ..., n}`
//! communicating over unidirectional FIFO channels, with every message
//! unique ("they can easily be made so by including in m its source and a
//! sequence number"). [`MsgId`] is exactly that construction.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a process in the system `P = {0, 1, ..., n-1}`.
///
/// The paper numbers processes from 1; we use zero-based indices so ids can
/// directly index per-process tables. The index is stored in 32 bits (so a
/// recorded event carries each id in four bytes): a system holds at most
/// 2³² processes, indices `0 ..= u32::MAX`. The API speaks `usize`.
///
/// # Examples
///
/// ```
/// use sfs_asys::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from a zero-based index.
    ///
    /// # Panics
    ///
    /// If `index` exceeds `u32::MAX`. Ids read from outside the program
    /// are range-checked where they enter (the wire codec, the trace JSON
    /// reader) and never reach this panic.
    #[inline]
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "process index exceeds u32::MAX");
        ProcessId(index as u32)
    }

    /// Returns the zero-based index of this process.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all process ids of an `n`-process system, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfs_asys::ProcessId;
    /// let all: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(all.len(), 3);
    /// assert_eq!(all[2], ProcessId::new(2));
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId::new)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Same as [`ProcessId::new`], panics included.
impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId::new(index)
    }
}

/// Globally unique message identity: sender plus a per-sender sequence
/// number, mirroring the paper's uniqueness construction.
///
/// Both halves are stored in 32 bits, eight bytes in all: a process
/// numbers at most 2³² messages, sequences `0 ..= u32::MAX`. The engines
/// never wrap the counter — the send that would need sequence `u32::MAX`
/// ends the run as the event budget does — and the API speaks `u64`.
///
/// # Examples
///
/// ```
/// use sfs_asys::{MsgId, ProcessId};
///
/// let m = MsgId::new(ProcessId::new(1), 7);
/// assert_eq!(m.source(), ProcessId::new(1));
/// assert_eq!(m.seq(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    source: ProcessId,
    seq: u32,
}

impl MsgId {
    /// Creates a message id from its source process and per-source sequence
    /// number.
    ///
    /// # Panics
    ///
    /// If `seq` exceeds `u32::MAX`. Sequences read from outside the
    /// program are range-checked where they enter (the wire codec, the
    /// trace JSON reader) and never reach this panic.
    #[inline]
    pub const fn new(source: ProcessId, seq: u64) -> Self {
        assert!(seq <= u32::MAX as u64, "message sequence exceeds u32::MAX");
        MsgId {
            source,
            seq: seq as u32,
        }
    }

    /// The process that sent the message.
    #[inline]
    pub const fn source(self) -> ProcessId {
        self.source
    }

    /// The per-source sequence number.
    #[inline]
    pub const fn seq(self) -> u64 {
        self.seq as u64
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.source.index(), self.seq)
    }
}

/// Identity of a timer registered with the simulation engine or the
/// threaded runtime. Timer ids are unique within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimerId(u64);

impl TimerId {
    /// Creates a timer id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        TimerId(raw)
    }

    /// The raw counter value backing this id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        for i in 0..10 {
            assert_eq!(ProcessId::new(i).index(), i);
            assert_eq!(ProcessId::from(i), ProcessId::new(i));
        }
    }

    #[test]
    fn process_id_ordering_matches_index() {
        assert!(ProcessId::new(0) < ProcessId::new(1));
        assert!(ProcessId::new(5) > ProcessId::new(4));
    }

    #[test]
    fn all_yields_n_ids_in_order() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            ids,
            vec![
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(3)
            ]
        );
    }

    #[test]
    fn msg_id_uniqueness_by_source_and_seq() {
        let a = MsgId::new(ProcessId::new(0), 1);
        let b = MsgId::new(ProcessId::new(0), 2);
        let c = MsgId::new(ProcessId::new(1), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, MsgId::new(ProcessId::new(0), 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcessId::new(2).to_string(), "p2");
        assert_eq!(MsgId::new(ProcessId::new(2), 9).to_string(), "m2.9");
        assert_eq!(TimerId::new(3).to_string(), "t3");
    }
}
