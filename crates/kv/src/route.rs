//! Session routing, stated once: which member of a replica group a client
//! session asks next.
//!
//! A pure law in [`depfast_raft::flow`]'s shape: replies come in, a target
//! comes out; there is no `Sim` and no I/O. Both client sessions route
//! through it — the KV client ([`crate::KvClient`]) per operation attempt,
//! the 2PC coordinator per shard prepare. A session holds its group's
//! members, the leader it believes in and a rotation cursor that starts
//! at its home member:
//!
//! * the target is the believed leader if there is one, otherwise the
//!   cursor's member;
//! * a success from a member makes it the believed leader;
//! * a failure from a member that is no longer the target moves nothing:
//!   the session has already left it behind;
//! * otherwise a hint naming another member is adopted as the believed
//!   leader; with no usable hint (none, the refuser itself, or a
//!   non-member) the session forgets its leader and the cursor moves on
//!   past the member that failed.
//!
//! The cursor persists across operations and always moves at least one
//! step, so with two or more members the member that just failed is never
//! asked again at once, and every member is reached. It never jumps to the
//! member after the one that failed: that rule and a stale hint form a
//! two-member cycle (`n1` names `n0`, `n0` knows no leader, `n1` follows
//! `n0`) that never reaches the leader.

use simkit::NodeId;

/// Where one session's requests to one replica group go.
pub struct Route {
    members: Vec<NodeId>,
    /// The believed leader, if any.
    pub(crate) leader: Option<NodeId>,
    /// Steps taken from member 0; the cursor's member is
    /// `members[cursor % members.len()]`.
    cursor: usize,
}

impl Route {
    /// A session over `members` (at least one) whose rotation starts at
    /// member `home % members.len()`, with no believed leader.
    pub fn new(members: Vec<NodeId>, home: usize) -> Self {
        Route {
            members,
            leader: None,
            cursor: home,
        }
    }

    /// The member the next request goes to.
    pub fn target(&self) -> NodeId {
        let at_cursor = self.members[self.cursor % self.members.len()];
        self.leader.unwrap_or(at_cursor)
    }

    /// `by` served a request: it is the believed leader.
    pub fn confirmed(&mut self, by: NodeId) {
        self.leader = Some(by);
    }

    /// `by` refused, failed or did not answer a request, naming `hint` as
    /// the leader if it knows one.
    pub fn failed(&mut self, by: NodeId, hint: Option<NodeId>) {
        if by != self.target() {
            return;
        }
        self.leader = hint.filter(|h| *h != by && self.members.contains(h));
        if self.leader.is_none() {
            // One step, and one more if it lands on `by` again.
            self.cursor += 1;
            self.cursor += usize::from(self.target() == by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    /// Three members, home member `home`, no believed leader.
    fn three(home: usize) -> Route {
        Route::new(nodes(&[0, 1, 2]), home)
    }

    /// What a member answers in a table row: it serves, or it refuses
    /// naming the hint (`None`: it knows no leader, or it timed out).
    #[derive(Clone, Copy)]
    enum Answer {
        Serves,
        Refuses(Option<u32>),
    }
    use Answer::{Refuses, Serves};

    /// Asks the target until it serves, each member answering as
    /// `answer` says; the members asked, the server last. Panics after
    /// `cap` asks.
    fn ask(route: &mut Route, answer: impl Fn(u32) -> Answer, cap: usize) -> Vec<u32> {
        let mut asked = Vec::new();
        while asked.len() < cap {
            let t = route.target();
            asked.push(t.0);
            match answer(t.0) {
                Serves => {
                    route.confirmed(t);
                    return asked;
                }
                Refuses(hint) => route.failed(t, hint.map(NodeId)),
            }
        }
        panic!("no server within {cap} asks: {asked:?}");
    }

    #[test]
    fn a_session_starts_at_its_home_member() {
        for client in 0..7 {
            assert_eq!(
                three(client).target(),
                NodeId(client as u32 % 3),
                "{client}"
            );
        }
        assert_eq!(Route::new(nodes(&[4, 9]), 3).target(), NodeId(9));
    }

    #[test]
    fn hints_are_adopted_unless_they_name_the_refuser_or_a_stranger() {
        // (hint, target after the home member refuses with it)
        let rows = [
            (Some(2), 2), // another member: adopted
            (Some(0), 0),
            (Some(1), 2), // the refuser itself: rotate past it
            (Some(7), 2), // not a member: rotate
            (None, 2),    // no hint: rotate
        ];
        for (hint, then) in rows {
            let mut r = three(1);
            r.failed(NodeId(1), hint.map(NodeId));
            assert_eq!(r.target(), NodeId(then), "hint {hint:?}");
            let adopted = r.leader.map(|l| l.0);
            assert_eq!(adopted, hint.filter(|h| *h == then), "hint {hint:?}");
        }
    }

    #[test]
    fn a_failed_leader_is_forgotten_and_the_cursor_moves_on() {
        // The cursor sits at member 1; a hint names 2; 2 fails. The next
        // target is neither 2 nor the cursor's old member.
        let mut r = three(1);
        r.failed(NodeId(1), Some(NodeId(2)));
        r.failed(NodeId(2), None);
        assert_eq!((r.leader, r.target()), (None, NodeId(0)));
        // A confirmed leader that times out goes the same way.
        let mut r = three(0);
        r.confirmed(NodeId(0));
        r.failed(NodeId(0), None);
        assert_eq!((r.leader, r.target()), (None, NodeId(1)));
    }

    #[test]
    fn a_refusal_from_a_member_already_left_behind_moves_nothing() {
        let mut r = three(0);
        r.failed(NodeId(0), Some(NodeId(2)));
        // A second, late refusal from member 0 (an earlier request's).
        r.failed(NodeId(0), None);
        assert_eq!((r.leader, r.target()), (Some(NodeId(2)), NodeId(2)));
        // The coordinator's case: two prepares asked member 0 of a shard
        // with no hints; both refuse, and the shard moves once.
        let mut r = three(0);
        r.failed(NodeId(0), None);
        r.failed(NodeId(0), None);
        assert_eq!(r.target(), NodeId(1));
    }

    #[test]
    fn a_single_member_is_always_the_target() {
        let mut r = Route::new(nodes(&[7]), 5);
        for hint in [None, Some(NodeId(7)), Some(NodeId(3))] {
            r.failed(NodeId(7), hint);
            assert_eq!(r.target(), NodeId(7), "{hint:?}");
        }
    }

    #[test]
    fn the_member_that_just_failed_is_never_asked_again_at_once() {
        for n in 2..6u32 {
            let mut r = Route::new((0..n).map(NodeId).collect(), 0);
            for _ in 0..3 * n {
                let failed = r.target();
                r.failed(failed, None);
                assert_ne!(r.target(), failed, "{n} members");
            }
        }
    }

    #[test]
    fn rotation_reaches_every_member_across_operations() {
        // No member knows a leader; the cursor persists, so every member
        // is asked in turn from the home member on.
        let mut r = Route::new(nodes(&[0, 1, 2, 3]), 2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let t = r.target();
            seen.insert(t.0);
            r.failed(t, None);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn a_stale_hint_then_no_hint_reaches_the_leader_within_members_plus_one_asks() {
        // Member 2 leads. Member 1 still names 0, which knows no leader.
        let answer = |m: u32| match m {
            2 => Serves,
            1 => Refuses(Some(0)),
            _ => Refuses(None),
        };
        let rows: [(usize, &[u32]); 3] = [(0, &[0, 1, 0, 2]), (1, &[1, 0, 2]), (2, &[2])];
        for (home, asked) in rows {
            let mut r = three(home);
            assert_eq!(ask(&mut r, answer, 3 + 1), asked, "home {home}");
            assert_eq!(r.leader, Some(NodeId(2)));
        }
    }

    #[test]
    fn a_session_follows_a_leader_change() {
        // Member 0 led and was confirmed; leadership moved to 2, and
        // member 0 now names it.
        let mut r = three(1);
        r.confirmed(NodeId(0));
        let answer = |m: u32| if m == 2 { Serves } else { Refuses(Some(2)) };
        assert_eq!(ask(&mut r, answer, 2), [0, 2]);
        assert_eq!(r.leader, Some(NodeId(2)));
    }
}
