//! Raft log GC: how far a replica may compact its log.
//!
//! One rule for all five drivers, consulted in the one apply body
//! ([`RaftCore`](crate::core::RaftCore)'s `apply_committed`). A pure law in
//! [`crate::flow`]'s shape: everything it decides from — the log's extent
//! and size, the applied index, the peers' match indices — is passed in,
//! and what comes back is the index to compact through, or nothing.
//!
//! * A **follower** keeps what it has not applied: its state machine holds
//!   the rest, and nobody reads a follower's log but its own apply loop.
//! * A **leader** keeps, in addition, what its slowest peer has not matched
//!   — the entries it will be asked to read `[next_index, ..)` from. A peer
//!   whose match the core never learns (ChainRaft's head digests no append
//!   reply; a freshly elected leader starts every peer at 0) retains
//!   everything.
//! * **Unless** the log has grown past `GC_SIZE_LIMIT`: then the laggard
//!   is cut loose — the leader compacts behind its own applied index as a
//!   follower would, and the next time it reaches for that peer's entries
//!   it finds `next_index` at or below the base and sends its state machine
//!   (`InstallSnapshot`) instead.
//!
//! `GC_SLACK` entries are kept behind the point either rule gives, and
//! the log is only cut once a further `GC_SLACK` could go, so a replica
//! holds between one and two slacks of applied entries plus whatever is
//! still in flight.
//!
//! Compaction is a metadata delete (see `depfast_storage::log`): it costs no
//! virtual time, so the law moves host memory and no simulated result.

/// Applied entries kept behind the compaction point, and the step
/// compaction moves in.
///
/// A constant, not an option: no shipped configuration wants another value,
/// and correctness does not depend on it — a follower answers an append
/// below its base from the fact that the base is committed, and a peer the
/// leader's log no longer reaches gets a snapshot. What it is sized for is
/// that a *rewind* needs neither: a retransmission backed up by a reject or
/// a full append window (`APPEND_WINDOW` × `max_entries_per_append` = 2 048
/// entries at the very most, a few dozen in practice) finds its
/// `prev_index` still in the follower's log. The step equals the slack so a
/// compaction drops ~1 000 entries at a time rather than one per apply
/// pass.
///
/// What it is *not* sized for is a leader change: a follower compacts
/// behind its own applied index, so a newly elected leader reaches back one
/// to two slacks and sends anyone further behind its whole state machine.
/// Measured (`docs/PERFORMANCE.md` §12, 33 MB of state, 1 KB entries): a
/// peer 3 000–48 000 entries behind a new leader is level again in
/// 0.5–0.6 virtual seconds by snapshot against 0.7–6.1 s from the log, at
/// 33 MB on the wire against 3–51 MB — more bytes until the lag passes
/// state size ÷ entry size (31 000 entries there). A slack that never sent
/// more bytes than the log would is that many entries: the memory this rule
/// exists to give back. Followers retaining to their leader's compaction
/// point instead (TiKV's shape) needs the point on the wire; see ROADMAP.
const GC_SLACK: u64 = 1024;

/// Log size past which a leader stops retaining entries for its slowest
/// peer: TiKV's `raft-log-gc-size-limit` (72 MB, three quarters of a 96 MB
/// region).
///
/// A constant for the same reason. It sits above the longest catch-up any
/// gated run produces (`fail-slow-follower`'s quarantined follower falls
/// 48 242 entries, 51 MB, behind and is fed from the log — no benchmark run
/// sends a snapshot), and it is what bounds the log when a peer is gone for
/// good: to the limit or to two slacks of entries, whichever is more (past
/// the limit a cut still waits for a whole step — 2 MB of 1 KB entries,
/// but 128 MB of 64 KB ones).
const GC_SIZE_LIMIT: u64 = 72 * 1024 * 1024;

/// What the law is told about a replica, at the end of an apply pass.
#[derive(Debug, Clone, Copy)]
pub struct Standing {
    /// First index the log still holds (one past its base).
    pub first_index: u64,
    /// Highest index applied to the state machine.
    pub applied: u64,
    /// Bytes of the entries the log holds.
    pub log_bytes: u64,
    /// The lowest match index among this replica's peers if it leads;
    /// `None` for a follower, a candidate or a deposed leader.
    pub slowest_match: Option<u64>,
}

/// The index `s`'s log may be compacted through now, if it is worth a step.
pub fn compact_through(s: &Standing) -> Option<u64> {
    let retained_for_peers = match s.slowest_match {
        Some(m) if s.log_bytes <= GC_SIZE_LIMIT => m,
        _ => u64::MAX,
    };
    let through = s.applied.min(retained_for_peers).saturating_sub(GC_SLACK);
    (through + 1 >= s.first_index + GC_SLACK).then_some(through)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn follower(first_index: u64, applied: u64) -> Standing {
        Standing {
            first_index,
            applied,
            log_bytes: MB,
            slowest_match: None,
        }
    }

    fn leader(first_index: u64, applied: u64, matches: &[u64], log_bytes: u64) -> Standing {
        Standing {
            first_index,
            applied,
            log_bytes,
            slowest_match: matches.iter().copied().min(),
        }
    }

    #[test]
    fn the_rule_by_table() {
        let table: &[(&str, Standing, Option<u64>)] = &[
            // A follower keeps what it has not applied, plus the slack.
            ("follower, young log", follower(1, 1_500), None),
            ("follower, one step due", follower(1, 2_048), Some(1_024)),
            ("follower, long run", follower(40_001, 50_000), Some(48_976)),
            // Slack and step: after cutting through 1 024 nothing goes until
            // a whole further step could.
            ("one short of a step", follower(1_025, 3_071), None),
            ("exactly a step", follower(1_025, 3_072), Some(2_048)),
            // A leader whose peers are current is bounded by its own apply.
            (
                "leader, peers current",
                leader(1, 5_000, &[5_000, 5_010], MB),
                Some(3_976),
            ),
            // One peer behind: everything it has not matched stays.
            (
                "leader, one peer behind",
                leader(1, 50_000, &[50_000, 3_000], 50 * MB),
                Some(1_976),
            ),
            (
                "leader, peer behind the step",
                leader(1_977, 50_000, &[50_000, 3_000], 50 * MB),
                None,
            ),
            // A match the core never learned retains everything.
            (
                "leader, one peer unknown",
                leader(1, 50_000, &[50_000, 0], 50 * MB),
                None,
            ),
            // The size limit cuts the laggard loose: the follower rule.
            (
                "leader, at the limit",
                leader(1, 70_000, &[70_000, 3_000], GC_SIZE_LIMIT),
                Some(1_976),
            ),
            (
                "leader, over the limit",
                leader(1, 70_000, &[70_000, 3_000], GC_SIZE_LIMIT + 1),
                Some(68_976),
            ),
            (
                "leader, unknown peer, over the limit",
                leader(1, 70_000, &[0, 0], GC_SIZE_LIMIT + 1),
                Some(68_976),
            ),
            // A deposed leader is told of no peers: the follower rule, even
            // with the match indices of its old term still on the books.
            (
                "deposed leader",
                Standing {
                    slowest_match: None,
                    ..leader(1, 50_000, &[50_000, 3_000], 50 * MB)
                },
                Some(48_976),
            ),
            // Nothing applied, nothing to drop.
            ("fresh replica", follower(1, 0), None),
        ];
        for (case, standing, expect) in table {
            assert_eq!(compact_through(standing), *expect, "{case}");
        }
    }

    #[test]
    fn a_replica_holds_between_one_and_two_slacks_of_applied_entries() {
        let mut first_index = 1;
        for applied in 0..10_000u64 {
            if let Some(through) = compact_through(&follower(first_index, applied)) {
                assert!(through >= first_index, "a step forward");
                first_index = through + 1;
            }
            let held = applied + 1 - first_index;
            assert!(held < 2 * GC_SLACK, "applied {applied}: holds {held}");
            assert!(
                held >= GC_SLACK.min(applied),
                "applied {applied}: holds {held}"
            );
        }
    }
}
