//! Group C: times calls into each layer's public functions in isolation.
//! Each probe runs five batches of a calibrated number of calls and
//! reports the median host time per call.

use crate::adapter::{self, Calls, Probe};
use crate::metrics::Value;
use crate::stats::median;

const BATCHES: usize = 5;

fn batch_calls(p: &Probe, batch_ns: u64) -> u64 {
    let cap = match p.calls {
        Calls::Exactly(n) => return n,
        Calls::AtMost(n) => n,
        Calls::Auto => u64::MAX,
    };
    // Grow until a batch is long enough to time, then scale to the
    // target; the calibration batches double as warm-up.
    let mut n = 64u64.min(cap);
    loop {
        let out = (p.run)(n);
        if out.host_ns >= batch_ns / 4 || n >= cap {
            let scaled = n as f64 * batch_ns as f64 / out.host_ns.max(1) as f64;
            return (scaled as u64).clamp(1, cap);
        }
        n = (n * 4).min(cap);
    }
}

/// Runs every probe with batches of about `batch_ns` host nanoseconds.
pub fn run(batch_ns: u64) -> Vec<Value> {
    let mut out = Vec::new();
    for p in adapter::probes() {
        let n = batch_calls(&p, batch_ns);
        let (mut per_call, mut extra) = (Vec::new(), Vec::new());
        let mut calls = 0;
        for _ in 0..BATCHES {
            let b = (p.run)(n);
            per_call.push(b.host_ns as f64 / b.calls as f64);
            extra.push(b.extra);
            calls += b.calls;
        }
        let ns = median(&per_call);
        let (value, unit) = if p.per_second {
            (1e9 / ns, "1/s")
        } else {
            (ns, "ns")
        };
        out.push(Value {
            name: p.name,
            value,
            unit,
            n: calls,
            exact: false,
        });
        if let Some((name, unit)) = p.extra {
            out.push(Value {
                name,
                value: median(&extra),
                unit,
                n: calls,
                exact: false,
            });
        }
    }
    out
}
