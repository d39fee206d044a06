//! Fixture: a "deterministic" network harness that waits on a deadline,
//! polls on a sleep from a spawned thread and opens a listener
//! (positives), a justified deadline, and a test module that may do as
//! it likes (negative). `lib.rs` beside it is no harness and stays silent.

use std::net::TcpListener;

/// POSITIVE: every verdict waits out this deadline.
pub const DEADLINE: std::time::Duration = std::time::Duration::from_millis(50);

/// POSITIVE ×3: a listener, a thread, a sleep.
pub fn relay() -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    std::thread::spawn(move || loop {
        if listener.accept().is_err() {
            std::thread::sleep(DEADLINE);
        }
    });
    Ok(())
}

/// JUSTIFIED: a deadline no verdict reads.
// lint: determinism: smoke-run RPC deadline; faults answer as values and nothing waits on it
pub const SMOKE: std::time::Duration = std::time::Duration::from_secs(5);

#[cfg(test)]
mod tests {
    #[test]
    fn may_sleep() {
        std::thread::sleep(super::DEADLINE);
    }
}
