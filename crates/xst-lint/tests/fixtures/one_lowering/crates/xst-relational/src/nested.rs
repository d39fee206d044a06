//! Seeded defect: a relational operator calling kernels itself — a
//! second copy of the lowering, invisible to the gate and the optimizer.
//! Mentioning xst_core::ops::sigma_domain in a comment is not naming it.

use xst_core::ops::{group_by_key, image, relative_product as rp, Scope};
use xst_core::{ExtendedSet, Value};

pub fn semijoin(l: &ExtendedSet, keys: &ExtendedSet, pos: i64) -> ExtendedSet {
    let scope = Scope::new(ExtendedSet::tuple([Value::Int(pos)]), identity_spec(2));
    image(l, keys, &scope)
}

pub fn matched(l: &ExtendedSet, r: &ExtendedSet) -> ExtendedSet {
    xst_core::ops::intersection(l, r)
}

fn identity_spec(n: i64) -> ExtendedSet {
    ExtendedSet::from_pairs((1..=n).map(|i| (Value::Int(i), Value::Int(i))))
}

pub fn groups(r: &ExtendedSet, key: &ExtendedSet) -> ExtendedSet {
    group_by_key(r, key)
}

#[cfg(test)]
mod tests {
    use xst_core::ops::union;

    #[test]
    fn an_oracle_may_call_a_kernel() {
        let _ = union;
    }
}
