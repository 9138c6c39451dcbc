//! Liveness guard: a watchdog around every rep.
//!
//! The transport has a known liveness hazard at the default policy (see
//! the README): a planned frame sequence can reach a point where the next
//! batch does not fit the sink's queue and no further fold can be
//! triggered, and then `run_source` blocks forever. The benchmark neither
//! fixes that nor models the sink's admission policy to predict it: it
//! bounds every rep in wall time, and the first rep of a run (a warm-up)
//! is what refuses a workload that would hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kills the process when an armed rep outlives its deadline. A stuck
/// `run_source` cannot be interrupted from outside, so the only honest
/// outcome is to name the stuck drive and exit non-zero without a result.
pub struct Watchdog {
    armed: Arc<Mutex<Option<(String, Instant)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Exit code of a watchdog expiry.
pub const WATCHDOG_EXIT: i32 = 3;

impl Watchdog {
    pub fn start() -> Self {
        let armed: Arc<Mutex<Option<(String, Instant)>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let (armed_t, stop_t) = (Arc::clone(&armed), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            // `stop` publishes nothing but itself; the poll tolerates any delay.
            while !stop_t.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let expired = armed_t
                    .lock()
                    .expect("watchdog state is only ever replaced whole")
                    .as_ref()
                    .filter(|(_, deadline)| Instant::now() > *deadline)
                    .map(|(what, _)| what.clone());
                if let Some(what) = expired {
                    eprintln!(
                        "watchdog: {what} is stuck past its deadline; the rep counts as failed \
                         (failed_share > 0) and no result is printed"
                    );
                    std::process::exit(WATCHDOG_EXIT);
                }
            }
        });
        Self { armed, stop, thread: Some(thread) }
    }

    /// Runs `f` under a deadline of `limit` from now.
    pub fn guard<T>(&self, what: &str, limit: Duration, f: impl FnOnce() -> T) -> T {
        let set = |v| *self.armed.lock().expect("watchdog state is only ever replaced whole") = v;
        set(Some((what.to_string(), Instant::now() + limit)));
        let out = f();
        set(None);
        out
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Deadline for the next rep: ten times the median so far, at least 30 s.
pub fn rep_deadline(rep_walls_s: &[f64]) -> Duration {
    Duration::from_secs_f64((10.0 * crate::stats::median(rep_walls_s)).max(30.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn deadline_has_a_floor() {
        assert_eq!(rep_deadline(&[]), Duration::from_secs(30));
        assert_eq!(rep_deadline(&[1.0, 2.0, 3.0]), Duration::from_secs(30));
        assert_eq!(rep_deadline(&[4.0, 5.0, 6.0]), Duration::from_secs(50));
    }

    #[test]
    fn guard_returns_the_closure_result_and_disarms() {
        let dog = Watchdog::start();
        assert_eq!(dog.guard("quick", Duration::from_secs(60), || 7), 7);
        assert!(dog.armed.lock().unwrap().is_none());
    }
}
