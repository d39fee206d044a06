//! Fixture: production code, not a deterministic module — deadlines and
//! threads are its business (negative).

pub mod net_harness;

pub fn serve() {
    let t = std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(1)));
    let _ = t.join();
}
