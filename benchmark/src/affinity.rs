//! Thread placement for the drives.
//!
//! The engine spawns a scoped thread for every fold (`ingest_prefix`) and
//! again inside `finish()`. Left to the scheduler, those short-lived
//! threads land on the caller's core or on the other one depending on the
//! machine's recent load, and the "single-thread" inline drive runs up to
//! 1.8× slower when they bounce (the pipeline state then moves between
//! caches on every fold). Pinning the driving thread — new threads inherit
//! the mask — takes that choice away from the scheduler, so the inline
//! drive measures the path and not the placement.

/// Restores the calling thread's affinity mask when dropped.
#[must_use = "the thread is unpinned again as soon as this is dropped"]
pub struct Pinned {
    #[cfg(target_os = "linux")]
    restore: Option<linux::CpuSet>,
}

/// Pins the calling thread to the `nth` CPU the process was allowed to
/// run on when it first asked (wrapping around when fewer are allowed),
/// so a thread that inherited a one-CPU mask can still be put on another.
/// Threads it spawns while pinned inherit the mask. If the kernel
/// refuses, or on another OS, the thread simply stays where it was:
/// placement only steadies timings, it never changes results.
pub fn pin_to_nth_allowed_cpu(nth: usize) -> Pinned {
    #[cfg(target_os = "linux")]
    {
        Pinned { restore: linux::pin(nth) }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = nth;
        Pinned {}
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(mask) = self.restore.take() {
            linux::set(&mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// A `cpu_set_t`: 1024 bits, as glibc defines it.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and the
        // size passed is its size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a live `cpu_set_t`-sized buffer the call only
        // reads, and the size passed is its size; pid 0 names the caller.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    fn cpus_in(mask: &CpuSet) -> Vec<usize> {
        (0..1024).filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0).collect()
    }

    /// The CPUs the process could use before anything was pinned. The
    /// first pin always comes from a thread nothing has narrowed yet.
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

    /// Pins to the `nth` allowed CPU; returns the mask to restore.
    pub fn pin(nth: usize) -> Option<CpuSet> {
        let current = get()?;
        let cpus = ALLOWED.get_or_init(|| cpus_in(&current));
        let cpu = *cpus.get(nth % cpus.len().max(1))?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one).then_some(current)
    }

    /// The CPUs in the calling thread's mask.
    #[cfg(test)]
    pub fn current_cpus() -> Option<Vec<usize>> {
        get().map(|mask| cpus_in(&mask))
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_drop_restores() {
        // On its own thread: the test harness's threads are left alone.
        std::thread::spawn(|| {
            let before = linux::current_cpus().expect("affinity is readable");
            {
                let _outer = pin_to_nth_allowed_cpu(0);
                let outer = linux::current_cpus().unwrap();
                assert_eq!(outer, vec![before[0]]);
                // A thread spawned while pinned inherits the mask, and can
                // still be moved to another of the process's CPUs.
                let inner = std::thread::spawn(|| {
                    let inherited = linux::current_cpus().unwrap();
                    let _pin = pin_to_nth_allowed_cpu(1);
                    (inherited, linux::current_cpus().unwrap())
                })
                .join()
                .unwrap();
                assert_eq!(inner.0, outer);
                assert_eq!(inner.1, vec![before[1 % before.len()]]);
            }
            assert_eq!(linux::current_cpus().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
