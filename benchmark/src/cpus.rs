//! Measured runs keep the load generator and the daemon on one CPU.
//!
//! With one closed-loop connection only one side works at a time, so
//! sharing a CPU costs no parallelism, and each hand-off between client
//! and daemon is a context switch on that CPU instead of a wake-up of
//! another CPU, which under a hypervisor is slow and erratic. On the
//! 2-core VM this benchmark was written on, a single-event round trip
//! took 17–22 µs at p50 with client and daemon on separate CPUs, and
//! 6.5–8.3 µs on one; left to the scheduler, runs drew one placement or
//! the other (about one in ten the fast one).

extern "C" {
    // glibc's wrappers for sched_getaffinity(2) and sched_setaffinity(2);
    // std already links libc.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Mask words: 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to the first CPU it may run on.
pub fn pin_to_one() -> Result<(), String> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly
    // `size_of_val(&mask)` bytes, which bounds what the kernel writes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "cannot read the CPU affinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return Ok(());
    };
    let first = mask[word] & mask[word].wrapping_neg();
    mask = [0; WORDS];
    mask[word] = first;
    // SAFETY: as above, `mask` is a live, initialised buffer of exactly
    // `size_of_val(&mask)` bytes, which is all the kernel reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot pin to one CPU: {}",
            std::io::Error::last_os_error()
        ))
    }
}
