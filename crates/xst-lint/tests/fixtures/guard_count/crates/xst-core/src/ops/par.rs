//! Seeded defect, the other direction: the one thread scope the
//! `one-partition` guard expects here is gone (spawned somewhere else).

pub fn fan_out<T>(items: Vec<T>, work: impl Fn(T) -> T) -> Vec<T> {
    items.into_iter().map(work).collect()
}
