//! Scope partitioning — grouping as a *set-theoretic* operation.
//!
//! Because XST membership carries a scope, "group by" has a natural
//! formulation with no extra machinery: re-scope each member by its group
//! key, then collect the members sharing a scope into one inner set,
//! scoped by the key. The result is a set of groups — itself an ordinary
//! extended set, so every downstream operation applies to it.
//!
//! ```text
//! partition_by_scope({a^1, b^1, c^2}) = { {a, b}^1, {c}^2 }
//! ```
//!
//! The relational layer builds GROUP BY / aggregation on these operations
//! (`xst_relational::aggregate`).

use crate::ops::rescope::rescope_value_by_scope;
use crate::set::{ExtendedSet, Member, SetBuilder};
use crate::value::Value;

/// Collect members by scope: each distinct scope `s` becomes one member
/// `{elements with scope s}^s`. Inner members are classically scoped.
pub fn partition_by_scope(a: &ExtendedSet) -> ExtendedSet {
    // Members sort scope first: each scope's members are one run, sorted by
    // element, and the runs come in scope order — so every group, and the
    // set of groups, is built already canonical.
    ExtendedSet::from_sorted_unique(
        a.scope_runs()
            .map(|run| {
                let group = run
                    .iter()
                    .map(|m| Member::classical(m.element.clone()))
                    .collect();
                Member::new(
                    Value::Set(ExtendedSet::from_sorted_unique(group)),
                    run[0].scope.clone(),
                )
            })
            .collect(),
    )
}

/// Inverse of [`partition_by_scope`]: flatten a set of groups back into a
/// single set, scoping each inner element by its group's scope. Members
/// that are not sets pass through unchanged.
pub fn flatten_partition(groups: &ExtendedSet) -> ExtendedSet {
    let mut b = SetBuilder::new();
    for (group, scope) in groups.iter() {
        match group.as_set() {
            Some(inner) => {
                for (e, _) in inner.iter() {
                    b.scoped(e.clone(), scope.clone());
                }
            }
            None => {
                b.scoped(group.clone(), scope.clone());
            }
        }
    }
    b.build()
}

/// Group the members of `a` by a key derived from each member element via
/// the re-scope spec `key` (Definition 7.3): member `x^s` lands in the
/// group scoped by `x^{/key/}`. Members whose key projection is empty are
/// dropped (they have no key).
pub fn group_by_key(a: &ExtendedSet, key: &ExtendedSet) -> ExtendedSet {
    let mut keyed = SetBuilder::with_capacity(a.card());
    for m in a.members() {
        let k = rescope_value_by_scope(&m.element, key);
        if k.is_empty() {
            continue;
        }
        keyed.scoped(m.element.clone(), Value::Set(k));
    }
    partition_by_scope(&keyed.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{xset, xtuple};

    #[test]
    fn partition_groups_by_scope() {
        let a = xset!["a" => 1, "b" => 1, "c" => 2];
        let p = partition_by_scope(&a);
        assert_eq!(
            p,
            xset![
                xset!["a", "b"].into_value() => 1,
                xset!["c"].into_value() => 2
            ]
        );
    }

    #[test]
    fn partition_of_empty_is_empty() {
        assert!(partition_by_scope(&ExtendedSet::empty()).is_empty());
    }

    #[test]
    fn partition_flatten_roundtrip() {
        let a = xset!["a" => 1, "b" => 1, "c" => 2, "d"];
        assert_eq!(flatten_partition(&partition_by_scope(&a)), a);
    }

    #[test]
    fn flatten_passes_atoms_through() {
        let groups = xset!["atom" => 9];
        assert_eq!(flatten_partition(&groups), xset!["atom" => 9]);
    }

    #[test]
    fn group_by_key_projects_then_partitions() {
        // Tuples ⟨dept, name⟩ grouped by position 1.
        let rows = xset![
            xtuple!["eng", "ann"].into_value(),
            xtuple!["eng", "cy"].into_value(),
            xtuple!["ops", "bo"].into_value()
        ];
        let key = xtuple![1]; // project position 1 as the key
        let groups = group_by_key(&rows, &key);
        assert_eq!(groups.card(), 2);
        // The eng group holds both eng rows, scoped by ⟨eng⟩.
        let eng_key = Value::Set(xtuple!["eng"]);
        let eng_group: Vec<_> = groups.elements_with_scope(&eng_key).collect();
        assert_eq!(eng_group.len(), 1);
        assert_eq!(eng_group[0].as_set().unwrap().card(), 2);
    }

    #[test]
    fn group_by_key_drops_keyless_members() {
        let rows = xset![
            xtuple!["eng", "ann"].into_value(),
            "atom" // no position 1 — no key
        ];
        let groups = group_by_key(&rows, &xtuple![1]);
        assert_eq!(groups.card(), 1);
    }

    #[test]
    fn groups_are_ordinary_sets() {
        // Downstream ops apply to the partition: e.g. union of two
        // partitions merges group sets as members.
        let p1 = partition_by_scope(&xset!["a" => 1]);
        let p2 = partition_by_scope(&xset!["b" => 2]);
        let merged = crate::ops::boolean::union(&p1, &p2);
        assert_eq!(merged.card(), 2);
    }
}
