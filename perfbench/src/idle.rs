//! Keeps the cores from halting while the benchmark measures.
//!
//! On a virtual machine a halted vCPU is woken by the host scheduler,
//! and under host load that wake-up takes milliseconds: a 2 ms sleep on
//! an idle guest overshoots by 2–4 ms at p99, and by about 0.1 ms while
//! the cores are kept busy. Every served request crosses several thread
//! wake-ups, so without this the 5 ms p99 limit measures the host's
//! scheduler instead of the server. The pollers run in a child process
//! started under `chrt --idle 0` (`SCHED_IDLE`): they get a core only
//! when no other thread wants it, and any waking thread preempts them at
//! once.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The poller process: this binary with `--idle-poll <n>`, stopped by
/// closing its standard input and waited for by [`IdlePoll::stop`] (or
/// on drop).
#[derive(Debug)]
pub struct IdlePoll {
    child: Child,
}

impl IdlePoll {
    /// Starts `n` pollers under `SCHED_IDLE`.
    ///
    /// # Errors
    ///
    /// Returns a message if `chrt` cannot start the poller process or the
    /// process exits at once (for instance because the policy was
    /// refused).
    pub fn start(n: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let child = Command::new("chrt")
            .args(["--idle", "0"])
            .arg(exe)
            .args(["--idle-poll", &n.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting the idle pollers with chrt: {e}"))?;
        let mut poll = Self { child };
        std::thread::sleep(Duration::from_millis(20));
        match poll.child.try_wait() {
            Ok(None) => Ok(poll),
            Ok(Some(status)) => Err(format!("idle pollers exited at start: {status}")),
            Err(e) => {
                poll.halt();
                Err(format!("idle pollers: {e}"))
            }
        }
    }

    /// Stops the pollers and waits for their process to end.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        // Closing stdin tells the poller process to stop; `wait` reaps it.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The body of the poller process: `n` busy-loop threads until standard
/// input reaches end of file.
pub fn poll_until_stdin_closes(n: usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    // Any read error also means the parent is gone: stop either way.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        // A poller only spins; a join error would be a panic in it, which
        // leaves nothing to clean up.
        let _ = t.join();
    }
}
