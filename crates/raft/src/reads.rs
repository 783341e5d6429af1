//! ReadIndex round sharing: which leadership-confirmation round a
//! linearizable get may ride.
//!
//! A pure state machine in [`crate::flow`]'s shape: terms, roles and
//! outcomes are passed in, decisions come back; broadcasting, waiting and
//! publishing are `depfast_driver`'s.
//!
//! Confirmation rounds are numbered as they launch. A get takes a
//! [`ReadTicket`] the instant it reaches this server and, once off the
//! serve CPU, is **served** by a round already confirmed, **joins** one in
//! flight, or **launches** the next at once — there is no linger, so a get
//! waits at most as long as the private round it would have launched at
//! that instant.
//!
//! The ReadIndex condition, stated once. A round confirms a get only if
//!
//! 1. it was *launched no earlier than the get reached this server* (its
//!    number is at least the ticket's `need`) — the client invoked the get
//!    strictly before that instant, so a majority that acknowledges the
//!    round's term does so after the invocation, and no leader of a later
//!    term can have acknowledged a write before it;
//! 2. its reply quorum answered in the ticket's term; and
//! 3. the node is leader in that term when the get looks.
//!
//! Then the commit index the get observed after its serve CPU covers every
//! write acknowledged before the get was invoked (given an own-term entry
//! has committed, which the caller checks), whichever get launched the
//! round.

use std::collections::VecDeque;

/// A get's place in the round sequence, taken when it reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTicket {
    /// Number of the first round launched after the get arrived: only a
    /// round numbered at least this may confirm it.
    need: u64,
    /// The node's term at that instant.
    term: u64,
}

impl ReadTicket {
    /// The confirmed-round watermark the get waits for.
    pub fn need(&self) -> u64 {
        self.need
    }
}

/// What a get does when it comes off the serve CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// The node is not leader in the ticket's term: answer "not leader".
    Refused,
    /// A round launched since the get arrived is already confirmed.
    Served,
    /// Such a round is in flight: wait for the confirmed-round watermark
    /// to reach [`ReadTicket::need`], then ask [`ReadRounds::confirms`].
    Join,
    /// None is: launch the round of this number now, then wait as for
    /// [`Resume::Join`].
    Launch(u64),
}

/// Round-sharing state of one node.
#[derive(Default)]
pub struct ReadRounds {
    /// Rounds launched so far (= the number of the newest).
    launched: u64,
    /// Newest confirmed round and the term that confirmed it.
    confirmed: u64,
    confirmed_term: u64,
    /// Unresolved rounds as `(number, launch term)`, oldest first.
    inflight: VecDeque<(u64, u64)>,
}

impl ReadRounds {
    /// The ticket of a request reaching the server now, in `term`.
    ///
    /// Every request takes one before its op is parsed, so this must stay
    /// free for everything that is not a get: it reads two counters — no
    /// RNG draw, no timer, no event, no allocation — or the simulated
    /// results of write-only workloads move.
    pub fn ticket(&self, term: u64) -> ReadTicket {
        ReadTicket {
            need: self.launched + 1,
            term,
        }
    }

    /// Whether a round has confirmed `ticket`, for a node now in `term`
    /// and `leader` or not: the ReadIndex condition of the module docs.
    pub fn confirms(&self, ticket: ReadTicket, term: u64, leader: bool) -> bool {
        leader
            && term == ticket.term
            && self.confirmed >= ticket.need
            && self.confirmed_term == ticket.term
    }

    /// Decides what the get holding `ticket` does now.
    pub fn resume(&mut self, ticket: ReadTicket, term: u64, leader: bool) -> Resume {
        if !leader || term != ticket.term {
            return Resume::Refused;
        }
        if self.confirms(ticket, term, leader) {
            return Resume::Served;
        }
        if self.inflight.back().is_some_and(|(n, _)| *n >= ticket.need) {
            return Resume::Join;
        }
        self.launched += 1;
        self.inflight.push_back((self.launched, term));
        Resume::Launch(self.launched)
    }

    /// Digests the end of `round`: `acked` if its quorum answered in its
    /// launch term, on a node now in `term` and `leader` or not. A round
    /// confirms only while the node still leads the term it was launched
    /// in; one that was not acknowledged, or whose node has since stepped
    /// down, confirms nobody. Rounds resolve in any order. Returns the
    /// confirmed-round watermark to publish if this round raised it.
    pub fn resolve(&mut self, round: u64, acked: bool, term: u64, leader: bool) -> Option<u64> {
        let at = self.inflight.iter().position(|(n, _)| *n == round)?;
        let (_, launch_term) = self.inflight.remove(at)?;
        let confirms = acked && leader && term == launch_term && round > self.confirmed;
        confirms.then(|| {
            self.confirmed = round;
            self.confirmed_term = term;
            round
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader of term 1 through the whole row unless the row says otherwise.
    const T: u64 = 1;

    fn resume(r: &mut ReadRounds, ticket: ReadTicket) -> Resume {
        r.resume(ticket, T, true)
    }

    #[test]
    fn the_first_get_launches_round_one_and_is_confirmed_by_it() {
        let mut r = ReadRounds::default();
        let get = r.ticket(T);
        assert_eq!((get.need(), resume(&mut r, get)), (1, Resume::Launch(1)));
        assert!(!r.confirms(get, T, true), "launched is not confirmed");
        assert_eq!(r.resolve(1, true, T, true), Some(1));
        assert!(r.confirms(get, T, true));
    }

    #[test]
    fn a_round_launched_before_arrival_never_serves() {
        let mut r = ReadRounds::default();
        let first = r.ticket(T);
        assert_eq!(resume(&mut r, first), Resume::Launch(1));
        // Arrives while round 1 is in flight: round 1's majority may have
        // answered before this get was invoked. It needs round 2 and
        // launches it at once rather than wait for round 1 to end.
        let late = r.ticket(T);
        assert_eq!(resume(&mut r, late), Resume::Launch(2));
        r.resolve(1, true, T, true);
        assert!(r.confirms(first, T, true));
        assert!(!r.confirms(late, T, true), "round 1 predates the late get");
        r.resolve(2, true, T, true);
        assert!(r.confirms(late, T, true));
    }

    #[test]
    fn gets_ticketed_before_a_round_launches_ride_it_together() {
        let mut r = ReadRounds::default();
        let warm = r.ticket(T);
        assert_eq!(resume(&mut r, warm), Resume::Launch(1));
        // Three arrive during round 1; the first off the CPU launches round
        // 2, the other two join it.
        let gets = [r.ticket(T), r.ticket(T), r.ticket(T)];
        assert_eq!(resume(&mut r, gets[0]), Resume::Launch(2));
        assert_eq!(resume(&mut r, gets[1]), Resume::Join);
        assert_eq!(resume(&mut r, gets[2]), Resume::Join);
        assert_eq!(r.resolve(2, true, T, true), Some(2));
        for get in gets {
            assert!(get.need() <= 2 && r.confirms(get, T, true));
        }
    }

    #[test]
    fn a_later_round_confirming_first_serves_an_earlier_need() {
        let mut r = ReadRounds::default();
        let a = r.ticket(T);
        assert_eq!(resume(&mut r, a), Resume::Launch(1));
        let b = r.ticket(T);
        assert_eq!(resume(&mut r, b), Resume::Launch(2));
        // Round 2 overtakes round 1: it was launched after both arrived.
        assert_eq!(r.resolve(2, true, T, true), Some(2));
        assert!(r.confirms(a, T, true) && r.confirms(b, T, true));
        // Round 1 trailing in does not take the watermark back.
        assert_eq!(r.resolve(1, true, T, true), None);
        assert!(r.confirms(b, T, true));
    }

    #[test]
    fn a_confirmed_round_serves_a_later_resuming_ticket_with_no_wait() {
        let mut r = ReadRounds::default();
        let slow = r.ticket(T); // long on the serve CPU
        let quick = r.ticket(T);
        assert_eq!(resume(&mut r, quick), Resume::Launch(1));
        r.resolve(1, true, T, true);
        assert_eq!(resume(&mut r, slow), Resume::Served);
        // ... and nothing after it: round 1 predates the next arrival.
        let next = r.ticket(T);
        assert_eq!(resume(&mut r, next), Resume::Launch(2));
    }

    #[test]
    fn an_older_term_ticket_is_refused_though_round_numbers_keep_counting() {
        let mut r = ReadRounds::default();
        let old = r.ticket(T);
        // Deposed and re-elected: a get of term 2 launches round 1, which a
        // majority acknowledges — in term 2.
        let new = r.ticket(2);
        assert_eq!(r.resume(new, 2, true), Resume::Launch(1));
        r.resolve(1, true, 2, true);
        assert!(r.confirms(new, 2, true));
        assert_eq!(old.need, 1, "round 1 is numbered high enough for it");
        assert_eq!(r.resume(old, 2, true), Resume::Refused);
        assert!(!r.confirms(old, 2, true));
        // Nor does a follower serve, whatever was confirmed.
        assert_eq!(r.resume(new, 2, false), Resume::Refused);
        assert!(!r.confirms(new, 2, false));
    }

    #[test]
    fn a_round_that_ends_after_a_step_down_confirms_nobody() {
        // (acked, term at the end, leader at the end) -> confirmed?
        let table = [
            (true, T, true, true),
            (false, T, true, false),    // timed out, or quorum unreachable
            (true, T, false, false),    // stepped down within the term
            (true, T + 1, true, false), // re-elected since: not this term's ack
        ];
        for (acked, term, leader, confirmed) in table {
            let mut r = ReadRounds::default();
            let get = r.ticket(T);
            assert_eq!(resume(&mut r, get), Resume::Launch(1));
            let case = format!("acked={acked} term={term} leader={leader}");
            let published = r.resolve(1, acked, term, leader);
            assert_eq!(published, confirmed.then_some(1), "{case}");
            assert_eq!(r.confirms(get, T, true), confirmed, "{case}");
            // Resolved either way: the next get launches, it does not join.
            let next = r.ticket(T);
            assert_eq!(resume(&mut r, next), Resume::Launch(2), "{case}");
        }
    }

    #[test]
    fn a_failed_round_leaves_its_get_to_the_next_one_in_flight() {
        let mut r = ReadRounds::default();
        let a = r.ticket(T);
        assert_eq!(resume(&mut r, a), Resume::Launch(1));
        let b = r.ticket(T);
        assert_eq!(resume(&mut r, b), Resume::Launch(2));
        assert_eq!(r.resolve(1, false, T, true), None);
        // A get that arrived with `a` comes off the CPU late: round 1 is
        // gone, round 2 is rideable.
        let twin = a;
        assert_eq!(resume(&mut r, twin), Resume::Join);
        assert_eq!(r.resolve(2, true, T, true), Some(2));
        assert!(r.confirms(twin, T, true));
    }
}
