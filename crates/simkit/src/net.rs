//! Network model: per-link latency, bandwidth, FIFO ordering, injected
//! delay, transient hiccups and partitions.
//!
//! Table 1's **network (slow)** fault — "add a delay of 400 milliseconds to
//! the network interface using `tc`" — is modelled as an *egress* delay on
//! the faulty node: every message it sends arrives that much later, exactly
//! what `tc netem` does to an interface.
//!
//! The model also injects rare, small, seeded "hiccups" on healthy links.
//! §2.2 (third root cause) observes that with three-node deployments,
//! "transient performance issues on the other follower inevitably prolong
//! the tail" once one follower fails slow; the hiccup knob is what lets the
//! simulation reproduce that tail amplification.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimTime;
use crate::world::NodeId;

/// Static network configuration shared by all links.
#[derive(Debug, Clone, Copy)]
pub struct NetCfg {
    /// One-way propagation latency of a healthy intra-DC link.
    pub base_latency: Duration,
    /// Uniform per-message jitter in `[0, jitter)`.
    pub jitter: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Probability that a message experiences a transient hiccup.
    pub hiccup_prob: f64,
    /// Extra delay a hiccup adds.
    pub hiccup_delay: Duration,
}

impl Default for NetCfg {
    fn default() -> Self {
        NetCfg {
            base_latency: Duration::from_micros(250),
            jitter: Duration::from_micros(60),
            bandwidth_bps: 1.0e9,
            hiccup_prob: 0.0008,
            hiccup_delay: Duration::from_millis(4),
        }
    }
}

fn pair(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// The shared network state of a simulated cluster.
#[derive(Debug)]
pub struct NetModel {
    cfg: NetCfg,
    egress_delay: HashMap<u32, Duration>,
    fifo_tail: HashMap<(u32, u32), SimTime>,
    partitioned: HashSet<(u32, u32)>,
    messages: u64,
    bytes: u64,
}

impl NetModel {
    /// Creates a fully-connected healthy network.
    pub fn new(cfg: NetCfg) -> Self {
        assert!(cfg.bandwidth_bps > 0.0, "bandwidth must be positive");
        NetModel {
            cfg,
            egress_delay: HashMap::new(),
            fifo_tail: HashMap::new(),
            partitioned: HashSet::new(),
            messages: 0,
            bytes: 0,
        }
    }

    /// Sets (or clears, with [`Duration::ZERO`]) the `tc`-style egress
    /// delay of `node`.
    pub fn set_egress_delay(&mut self, node: NodeId, delay: Duration) {
        if delay.is_zero() {
            self.egress_delay.remove(&node.0);
        } else {
            self.egress_delay.insert(node.0, delay);
        }
    }

    /// Severs the link `a`–`b` (messages are dropped).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.insert(pair(a, b));
    }

    /// Heals the link `a`–`b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.remove(&pair(a, b));
    }

    /// Returns `true` if the link `a`–`b` is currently partitioned.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&pair(a, b))
    }

    /// Total messages accepted so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes accepted so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Computes the delivery instant of a message sent now, or `None` if
    /// the link is partitioned.
    ///
    /// Delivery preserves per-link FIFO order (a later message never
    /// arrives before an earlier one on the same directed link), modelling
    /// a TCP connection.
    pub fn delivery_time(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        rng: &mut SmallRng,
    ) -> Option<SimTime> {
        if self.is_partitioned(from, to) {
            return None;
        }
        self.messages += 1;
        self.bytes += bytes;
        let mut delay = self.cfg.base_latency;
        if !self.cfg.jitter.is_zero() {
            delay += Duration::from_nanos(rng.random_range(0..self.cfg.jitter.as_nanos() as u64));
        }
        delay += Duration::from_nanos((bytes as f64 / self.cfg.bandwidth_bps * 1e9) as u64);
        if let Some(d) = self.egress_delay.get(&from.0) {
            delay += *d;
        }
        if self.cfg.hiccup_prob > 0.0 && rng.random::<f64>() < self.cfg.hiccup_prob {
            delay += self.cfg.hiccup_delay;
        }
        let at = now + delay;
        let tail = self
            .fifo_tail
            .entry((from.0, to.0))
            .or_insert(SimTime::ZERO);
        let deliver = at.max(*tail);
        *tail = deliver;
        Some(deliver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn net() -> (NetModel, SmallRng) {
        let cfg = NetCfg {
            base_latency: Duration::from_micros(100),
            jitter: Duration::ZERO,
            bandwidth_bps: 1_000_000.0,
            hiccup_prob: 0.0,
            hiccup_delay: Duration::ZERO,
        };
        (NetModel::new(cfg), SmallRng::seed_from_u64(7))
    }

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn base_latency_plus_transfer() {
        let (mut n, mut rng) = net();
        // 1000 bytes at 1 MB/s = 1 ms transfer + 100 µs base.
        let t = n
            .delivery_time(SimTime::ZERO, A, B, 1000, &mut rng)
            .unwrap();
        assert_eq!(t, SimTime::from_micros(1100));
    }

    #[test]
    fn egress_delay_applies_to_sender_only() {
        let (mut n, mut rng) = net();
        n.set_egress_delay(B, Duration::from_millis(400));
        let fwd = n.delivery_time(SimTime::ZERO, A, B, 0, &mut rng).unwrap();
        let back = n.delivery_time(SimTime::ZERO, B, A, 0, &mut rng).unwrap();
        assert_eq!(fwd, SimTime::from_micros(100));
        assert_eq!(back, SimTime::from_micros(400_100));
    }

    #[test]
    fn fifo_ordering_is_preserved_per_link() {
        let (mut n, mut rng) = net();
        let big = n
            .delivery_time(SimTime::ZERO, A, B, 10_000_000, &mut rng)
            .unwrap();
        let small = n.delivery_time(SimTime::ZERO, A, B, 1, &mut rng).unwrap();
        assert!(small >= big, "later message must not overtake");
    }

    #[test]
    fn partition_drops_messages_and_heals() {
        let (mut n, mut rng) = net();
        n.partition(A, B);
        assert!(n.delivery_time(SimTime::ZERO, A, B, 0, &mut rng).is_none());
        assert!(n.delivery_time(SimTime::ZERO, B, A, 0, &mut rng).is_none());
        n.heal(A, B);
        assert!(n.delivery_time(SimTime::ZERO, A, B, 0, &mut rng).is_some());
    }

    #[test]
    fn counters_accumulate() {
        let (mut n, mut rng) = net();
        n.delivery_time(SimTime::ZERO, A, B, 10, &mut rng);
        n.delivery_time(SimTime::ZERO, A, B, 20, &mut rng);
        assert_eq!(n.messages(), 2);
        assert_eq!(n.bytes(), 30);
    }

    #[test]
    fn hiccups_fire_with_configured_probability() {
        let cfg = NetCfg {
            base_latency: Duration::from_micros(100),
            jitter: Duration::ZERO,
            bandwidth_bps: 1e12,
            hiccup_prob: 0.5,
            hiccup_delay: Duration::from_millis(100),
        };
        let mut n = NetModel::new(cfg);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut hiccups = 0;
        for _ in 0..1000 {
            // Use distinct links to avoid FIFO coupling.
            let t = n.delivery_time(SimTime::ZERO, A, B, 0, &mut rng).unwrap();
            if t >= SimTime::from_millis(100) {
                hiccups += 1;
            }
            n.fifo_tail.clear();
        }
        assert!((300..700).contains(&hiccups), "got {hiccups}");
    }
}
