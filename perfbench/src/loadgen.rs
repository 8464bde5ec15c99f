//! Open-loop load generator: requests fall due on a fixed schedule
//! whether or not earlier ones have finished, and a fixed pool of
//! connections sends them in due order. Latency is measured from each
//! request's *due* time, so a stall is charged to every request that
//! waited behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timing of one request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When a connection actually started sending it.
    pub start: Instant,
    /// When its response was complete.
    pub end: Instant,
}

impl Timing {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.start.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Send `count` requests, request `i` due at `origin + i * interval`,
/// over `connections` concurrent connections. `exec(i)` performs
/// request `i`. Returns every request's timing and result, in
/// schedule order.
pub fn run<R: Send>(
    origin: Instant,
    interval: Duration,
    count: usize,
    connections: usize,
    exec: impl Fn(usize) -> R + Sync,
) -> Vec<(Timing, R)> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Timing, R)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let due = origin + interval * u32::try_from(i).unwrap_or(u32::MAX);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let start = Instant::now();
                    let r = exec(i);
                    mine.push((
                        i,
                        Timing {
                            due,
                            start,
                            end: Instant::now(),
                        },
                        r,
                    ));
                }
                done.lock()
                    .expect("load generator thread panicked")
                    .extend(mine);
            });
        }
    });
    let mut out = done.into_inner().expect("load generator thread panicked");
    out.sort_by_key(|(i, _, _)| *i);
    out.into_iter().map(|(_, t, r)| (t, r)).collect()
}

/// The largest number of requests that were due but not yet sent at
/// any moment.
pub fn backlog_max(timings: &[Timing]) -> usize {
    let mut dues: Vec<Instant> = timings.iter().map(|t| t.due).collect();
    let mut starts: Vec<Instant> = timings.iter().map(|t| t.start).collect();
    dues.sort();
    starts.sort();
    // Just before the k-th send, k requests have been sent and every
    // request due by then is waiting or being sent.
    starts
        .iter()
        .enumerate()
        .map(|(k, s)| dues.partition_point(|d| d <= s).saturating_sub(k + 1))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_measured_from_the_due_time() {
        // One connection; the first request stalls for 120 ms, the rest
        // are instant. Requests due during the stall wait for it, and
        // their latency must include that wait.
        let origin = Instant::now();
        let out = run(origin, Duration::from_millis(10), 6, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            i
        });
        assert_eq!(
            out.iter().map(|(_, r)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        let (second, _) = out[1];
        assert!(
            second.end.duration_since(second.start) < Duration::from_millis(50),
            "the second request itself is instant"
        );
        assert!(
            second.latency_ms() >= 100.0,
            "it waited ~110 ms behind the stall: {}",
            second.latency_ms()
        );
        assert!(second.late_ms() >= 100.0);
        assert!(backlog_max(&out.iter().map(|(t, _)| *t).collect::<Vec<_>>()) >= 4);
    }

    #[test]
    fn sends_no_earlier_than_due() {
        let origin = Instant::now();
        let out = run(origin, Duration::from_millis(5), 8, 2, |_| ());
        for (t, _) in &out {
            assert!(t.start >= t.due);
        }
        let last = out.last().expect("eight requests").0;
        assert!(last.start.duration_since(origin) >= Duration::from_millis(35));
    }
}
