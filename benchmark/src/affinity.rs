//! Binds a run to one processor at a time.
//!
//! The build box gives the benchmark two virtual processors of a shared
//! host. A deployment on the live runtime is a dozen threads, and left to
//! the scheduler its speed depended on which threads happened to share a
//! processor and on what waking the *other*, idle virtual processor cost
//! that minute (measured: the window-4 median differed by a third between
//! two boots of one process, and 10 runs spread 12–31 % between their
//! quartiles). Bound to one processor, every hand-off is a context switch
//! on a processor that is already awake, other tenants can only take
//! cycles away, and the quietest slices of a run repeat within a few
//! percent (see the README). So a run measures the program on one
//! processor: what a request costs, not how well two processors overlap.
//!
//! Which processor changes from boot to boot ([`Turns`]): each virtual
//! processor is slowed by its own neighbours at its own times, and a run
//! that uses them in turn needs only one of them to be quiet for a while.
//!
//! The only `unsafe` of the package: two calls into the C library every
//! Rust program on Linux already links.

#![allow(unsafe_code)]

/// Words of the kernel's 1024-bit `cpu_set_t`.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// The processors set in `mask`, in ascending order.
fn processors_in(mask: &[u64; WORDS]) -> Vec<usize> {
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The processors the calling thread may run on; empty where the platform
/// cannot say (runs then go ahead unbound, and say so).
#[cfg(target_os = "linux")]
pub fn allowed_processors() -> Vec<usize> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is `WORDS * 8` writable bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    processors_in(&allowed)
}

/// Binds the calling thread — and every thread it spawns from now on — to
/// `processor` alone. Returns whether the kernel agreed.
#[cfg(target_os = "linux")]
pub fn bind_to(processor: usize) -> bool {
    let mut one = [0u64; WORDS];
    one[processor / 64] = 1 << (processor % 64);
    // SAFETY: `one` is `WORDS * 8` readable bytes; pid 0 is this thread.
    unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) == 0 }
}

/// Not on this platform.
#[cfg(not(target_os = "linux"))]
pub fn allowed_processors() -> Vec<usize> {
    Vec::new()
}

/// Not on this platform.
#[cfg(not(target_os = "linux"))]
pub fn bind_to(_processor: usize) -> bool {
    false
}

/// The processors a run takes turns on: bound to the first at once, and to
/// the next whenever [`Turns::next`] is called (before a boot, so that the
/// deployment's threads inherit the binding).
#[derive(Debug, Clone)]
pub struct Turns {
    processors: Vec<usize>,
    at: usize,
}

impl Turns {
    /// Reads the allowed processors and binds to the first of them.
    pub fn start() -> Turns {
        let mut processors = allowed_processors();
        if !processors.first().is_some_and(|first| bind_to(*first)) {
            processors.clear();
        }
        Turns { processors, at: 0 }
    }

    /// The processors taken turns on; empty when the run is unbound.
    pub fn processors(&self) -> &[usize] {
        &self.processors
    }

    /// Binds to the next processor in turn.
    pub fn next(&mut self) {
        if !self.processors.is_empty() {
            self.at = (self.at + 1) % self.processors.len();
            bind_to(self.processors[self.at]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mask_lists_its_processors() {
        let mut mask = [0u64; WORDS];
        assert!(processors_in(&mask).is_empty());
        mask[0] = 0b0110;
        mask[1] = 1;
        assert_eq!(processors_in(&mask), vec![1, 2, 64]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_bound_thread_and_its_children_see_one_processor() {
        std::thread::spawn(|| {
            let mut turns = Turns::start();
            assert!(!turns.processors().is_empty(), "linux binds");
            for _ in 0..3 {
                let seen = std::thread::spawn(allowed_processors).join().unwrap();
                assert_eq!(seen, vec![turns.processors()[turns.at]]);
                turns.next();
            }
        })
        .join()
        .unwrap();
    }
}
