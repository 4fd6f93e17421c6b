//! Host-time measurement for the end-to-end host times: CPU clocks and
//! a speed calibration.
//!
//! On a shared host the same work takes anywhere from 1× to 1.8× as long,
//! in episodes that last from seconds to minutes, for two reasons:
//!
//! * the benchmark's thread waits while the guest or the host runs
//!   something else (run-queue delay, steal). Wall time counts the wait,
//!   and a short probe catches a different share of it than a long run
//!   does, so scaling wall time by a probe does not cancel it. The CPU
//!   time the scheduler charges the thread ([`thread_cpu_secs`]) leaves
//!   the wait out;
//! * the CPU itself runs slower or faster (clock frequency, contention in
//!   the host's shared caches). That shows in CPU time too.
//!
//! For the second, the benchmark times a fixed kernel that belongs to the
//! benchmark, not to the library, before every set-up and every repeat:
//! pseudo-random read-modify-writes over a 4 MiB table (cache misses and
//! integer division), then pops and pushes on a 64k-entry binary heap
//! (data-dependent branches, like the simulator's queues). A host-time
//! figure is its CPU seconds scaled by [`REFERENCE_S`] over the mean CPU
//! seconds of all the kernel runs of the process. A change to the library
//! cannot change the kernel, so a real speed-up survives the scaling.
//!
//! Measured on the 2-vCPU machine this benchmark was written on: in 18
//! `offline_td` processes over 20 minutes, the median repeat drifted
//! between 1.24 s and 1.70 s of wall time and the kernel's time with it
//! (correlation 0.97); scaled by the kernel, the 18
//! medians spread by 0.026 (interquartile distance over median), against
//! 0.098 unscaled. With two other processes competing for the two vCPUs,
//! the wall time of a repeat grew by 35–60% and its CPU time by under 5%.

use std::collections::BinaryHeap;

/// Kernel CPU seconds at the reference host speed. The kernel took
/// 0.024–0.034 s on the 2.1 GHz x86-64 vCPU it was tuned on, so scaled
/// times read up to 1.5× the unscaled ones there.
pub const REFERENCE_S: f64 = 0.035;

/// CPU seconds the calling thread has run: the scheduler's
/// `sum_exec_runtime`, which leaves out time spent waiting for a CPU and,
/// on a paravirtualised guest, time the host ran something else. The
/// kernel updates it at every scheduler tick (4 ms at 250 Hz), so one
/// reading lags by up to a tick.
pub fn thread_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let nanos: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .expect("schedstat starts with the run time in ns");
    nanos as f64 * 1e-9
}

/// Clock ticks per second of `/proc/self/stat` (Linux's `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU seconds all threads of the process have run, exited ones
/// included (user plus system time of `/proc/self/stat`, in 10 ms
/// ticks): the clock for calls that run on several threads.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, from field 3 (state)
    // on; utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse::<u64>().expect("utime and stime are tick counts"))
        .sum();
    ticks as f64 / USER_HZ
}

/// Table words (4 MiB): larger than a core's private caches.
const TABLE_WORDS: usize = 1 << 19;
/// Table read-modify-writes per kernel run.
const TABLE_STEPS: u32 = 2_000_000;
/// Heap entries.
const HEAP_LEN: usize = 1 << 16;
/// Heap pop-and-push pairs per kernel run.
const HEAP_STEPS: u32 = 400_000;

/// The calibration kernel and its data.
#[derive(Debug, Default)]
pub struct Kernel {
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    state: u64,
}

impl Kernel {
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state
    }

    /// Run the kernel once; returns its CPU seconds.
    pub fn run(&mut self) -> f64 {
        if self.table.is_empty() {
            self.table = (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            for _ in 0..HEAP_LEN {
                let key = self.next() >> 20;
                self.heap.push(key);
            }
        }
        let start = thread_cpu_secs();
        let len = std::hint::black_box(self.table.len()) as u64;
        for _ in 0..TABLE_STEPS {
            let x = self.next();
            let i = ((x >> 33) % len) as usize;
            self.table[i] = self.table[i].rotate_left(7) ^ x;
        }
        for _ in 0..HEAP_STEPS {
            let top = self.heap.pop().unwrap_or(0);
            let key = (self.next() >> 20) ^ (top & 0xff);
            self.heap.push(key);
        }
        std::hint::black_box((&self.table, &self.heap));
        thread_cpu_secs() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        let mut k = Kernel::default();
        assert!(k.run() > 0.0);
        assert_eq!(k.table.len(), TABLE_WORDS);
        assert_eq!(k.heap.len(), HEAP_LEN);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t, p) = (thread_cpu_secs(), process_cpu_secs());
        let mut k = Kernel::default();
        while thread_cpu_secs() - t < 0.05 {
            k.run();
        }
        assert!(process_cpu_secs() > p);
    }
}
