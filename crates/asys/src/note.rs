//! Structured trace annotations.
//!
//! Protocols running inside the simulator can attach [`Note`]s to the trace.
//! Notes never affect execution; they exist so that property checkers can
//! inspect protocol-internal facts that the formal event model does not
//! carry. The main consumer is the Witness-property checker (Theorem 6/7 of
//! the paper), which needs the *quorum set* `Q_ij` each detection was based
//! on.

use crate::id::ProcessId;
use crate::text::Text;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Well-known key used by the simulated-fail-stop protocol when recording
/// the quorum set behind a failure detection.
pub const NOTE_QUORUM: &str = "quorum";

/// Well-known key used by the election application when a process starts
/// considering itself the leader.
pub const NOTE_LEADER: &str = "leader";

/// A structured, execution-neutral annotation attached to the trace by a
/// process.
///
/// 24 bytes, so that it fits a 32-byte [`TraceEventKind`] beside its
/// process id: keys and values are one-word [`Text`] of any length, the
/// process set is boxed, and the set holds ids in the 32-bit range of
/// [`ProcessId`].
///
/// [`TraceEventKind`]: crate::TraceEventKind
///
/// # Examples
///
/// ```
/// use sfs_asys::{Note, ProcessId};
///
/// let quorum = Note::process_set(
///     "quorum",
///     Some(ProcessId::new(2)),
///     vec![ProcessId::new(0), ProcessId::new(1)],
/// );
/// assert_eq!(quorum.key(), "quorum");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Note {
    /// A free-form key/value fact, e.g. `leader = p0`.
    KeyVal {
        /// Annotation kind.
        key: Text,
        /// Annotation payload.
        val: Text,
    },
    /// A fact about a set of processes, e.g. the quorum set supporting the
    /// detection of `about`.
    ProcessSet {
        /// Annotation kind (see [`NOTE_QUORUM`]).
        key: Text,
        /// The process the set is about, if any (e.g. the suspect).
        about: Option<ProcessId>,
        /// The set itself, sorted ascending; boxed to keep the note small.
        set: Box<Vec<ProcessId>>,
    },
}

impl Note {
    /// Creates a key/value note, rendering `val` with its `Display`.
    pub fn key_val(key: impl Into<Text>, val: impl fmt::Display) -> Self {
        Note::KeyVal {
            key: key.into(),
            val: Text::render(format_args!("{val}")),
        }
    }

    /// Creates a process-set note; the set is sorted for determinism.
    pub fn process_set(
        key: impl Into<Text>,
        about: Option<ProcessId>,
        mut set: Vec<ProcessId>,
    ) -> Self {
        set.sort_unstable();
        set.dedup();
        Note::ProcessSet {
            key: key.into(),
            about,
            set: Box::new(set),
        }
    }

    /// The annotation kind.
    pub fn key(&self) -> &str {
        match self {
            Note::KeyVal { key, .. } | Note::ProcessSet { key, .. } => key,
        }
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::KeyVal { key, val } => write!(f, "{key}={val}"),
            Note::ProcessSet { key, about, set } => {
                write!(f, "{key}")?;
                if let Some(p) = about {
                    write!(f, "({p})")?;
                }
                write!(f, "={{")?;
                for (i, p) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_set_is_sorted_and_deduped() {
        let n = Note::process_set(
            NOTE_QUORUM,
            None,
            vec![ProcessId::new(2), ProcessId::new(0), ProcessId::new(2)],
        );
        match n {
            Note::ProcessSet { set, .. } => {
                assert_eq!(*set, vec![ProcessId::new(0), ProcessId::new(2)]);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn display_round_trips_key() {
        let n = Note::key_val(NOTE_LEADER, ProcessId::new(1));
        assert_eq!(n.key(), NOTE_LEADER);
        assert_eq!(n.to_string(), "leader=p1");
        let s = Note::process_set("quorum", Some(ProcessId::new(3)), vec![ProcessId::new(1)]);
        assert_eq!(s.to_string(), "quorum(p3)={p1}");
    }
}
