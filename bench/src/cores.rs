//! Where a run's threads execute, so that a hand-off between them costs
//! the same every time.
//!
//! In a closed loop the caller sleeps on its socket while a server thread
//! works, and the server sleeps while the caller does. Left alone in this
//! sandbox that hand-off is the noisiest thing in a wire op:
//!
//! * a sleeping thread leaves its virtual CPU idle, an idle virtual CPU
//!   halts into the hypervisor, and waking it costs 4–25 µs depending on
//!   how long the host has learnt to poll before it really sleeps — which
//!   it relearns every few minutes. `Client::ping` read 8 µs or 45 µs and
//!   `wire_point`'s p50 157 µs or 251 µs in sets of ten runs fifteen
//!   minutes apart, nothing changed;
//! * when caller and server happen to sit on different virtual CPUs, each
//!   wake-up is an inter-processor interrupt through the hypervisor; when
//!   they share one it is a context switch. The scheduler's first
//!   placement sticks, so one run in eight read 40 % above its neighbours.
//!
//! Every workload here is sequential — one thread runnable at a time — so
//! a single CPU loses nothing. A run therefore re-executes itself under
//! `taskset -c <cpu>`: all hand-offs become context switches on one CPU
//! that is never idle. Interleaved pairs on two seeds of `wire_point`,
//! pinned against not: 111–114 and 124–125 µs pinned (four runs each),
//! 114–157 and 124–125 µs unpinned.
//!
//! Where `taskset` is missing the run stays unpinned and instead keeps
//! every CPU out of the halted state with one thread per CPU that only
//! yields ([`KeepAwake`]). A yielding thread gives way to any runnable
//! thread at each call, so the threads under test are not held up: every
//! wire workload read faster with the spinners than without (interleaved:
//! `wire_scan` 1369–1389 µs against 1487–1576), and `inproc_plan`, which
//! never sleeps, moved by about 1 %. It removes the first effect above but
//! not the second.

use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Set (to the CPU's number) in the environment of the pinned child.
const PINNED_ENV: &str = "XST_REQBENCH_PINNED_CPU";

/// The highest-numbered CPU this process may run on, from the kernel's
/// `Cpus_allowed_list` (e.g. `0-1` or `0,2-3`).
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Run this same command line again, pinned to one CPU, and report how
/// it ended. `None` when this process *is* the pinned child, or when
/// pinning is not possible here — the caller then runs in-process.
pub fn rerun_pinned() -> Option<ExitCode> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = last_allowed_cpu()?.to_string();
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, &cpu)
        .status()
        .ok()?;
    match status.code() {
        // `taskset` itself exits 1 when it cannot set the affinity; a run
        // of ours never does.
        Some(1) | None => None,
        Some(code) => Some(ExitCode::from(code as u8)),
    }
}

/// How this process's threads are placed, for the record.
pub fn placement() -> String {
    match std::env::var(PINNED_ENV) {
        Ok(cpu) => format!("pinned to cpu {cpu}"),
        Err(_) => "unpinned, cores kept awake".to_string(),
    }
}

/// One yielding thread per available CPU, until the value is dropped.
/// Does nothing in a pinned run, whose one CPU is never idle.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = if std::env::var_os(PINNED_ENV).is_some() {
            0
        } else {
            thread::available_parallelism().map_or(1, usize::from)
        };
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                // Relaxed: the flag publishes no other data.
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_awake_starts_and_stops_its_threads() {
        let awake = KeepAwake::start();
        assert!(!awake.spinners.is_empty());
        drop(awake); // joins: a spinner that ignored the flag would hang here
    }

    #[test]
    fn this_process_may_run_somewhere() {
        assert!(last_allowed_cpu().is_some());
    }
}
