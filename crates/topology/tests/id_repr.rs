//! `ComponentId` behaves exactly like a path held in a `Vec<u8>`.
//!
//! Ordering, hashing and formatting of ids reach persisted and compared
//! artifacts: `BTreeMap` iteration order decides simulated histories, and
//! hashes feed the canonical state fingerprints the explorers memoize on.
//! These tests pin all four to a reference type that stores the path as a
//! `Vec<u8>` with derived impls, over every node of `T_16` and `T_64` and
//! over random valid paths up to `ComponentId::MAX_LEVEL` steps.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use acn_topology::{ComponentKind, Tree};
use proptest::prelude::*;

mod reference {
    /// The heap-path representation, with derived impls.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ComponentId {
        pub path: Vec<u8>,
    }
}

/// A hasher that records the exact byte stream it is fed.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl Hasher for Recorder {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn hash_stream(value: &impl Hash) -> Vec<u8> {
    let mut h = Recorder::default();
    value.hash(&mut h);
    h.0
}

fn display(path: &[u8]) -> String {
    if path.is_empty() {
        return "/".to_string();
    }
    path.iter().map(|step| format!("/{step}")).collect()
}

/// Checks one id against its reference: hash stream, `Debug`, `Display`.
fn check_one(path: &[u8]) {
    let id = acn_topology::ComponentId::from_path(path);
    let old = reference::ComponentId { path: path.to_vec() };
    assert_eq!(id.path(), path);
    assert_eq!(hash_stream(&id), hash_stream(&old), "hash of {id}");
    assert_eq!(hash_stream(&id), hash_stream(&path), "hash of {id} vs its path slice");
    assert_eq!(format!("{id:?}"), format!("{old:?}"));
    assert_eq!(format!("{id:#?}"), format!("{old:#?}"));
    assert_eq!(id.to_string(), display(path));
}

/// Checks that ids order and compare like their references.
fn check_pair(a: &[u8], b: &[u8]) {
    let (ia, ib) =
        (acn_topology::ComponentId::from_path(a), acn_topology::ComponentId::from_path(b));
    let expected = reference::ComponentId { path: a.to_vec() }
        .cmp(&reference::ComponentId { path: b.to_vec() });
    assert_eq!(ia.cmp(&ib), expected, "{ia} vs {ib}");
    assert_eq!(ia.cmp(&ib), a.cmp(b));
    assert_eq!(ia.partial_cmp(&ib), Some(expected));
    assert_eq!(ia == ib, expected == Ordering::Equal);
}

fn tree_paths(width: usize) -> Vec<Vec<u8>> {
    Tree::new(width).iter_preorder().map(|info| info.id.path().to_vec()).collect()
}

#[test]
fn every_node_of_t16_matches_the_vec_representation() {
    let paths = tree_paths(16);
    for a in &paths {
        check_one(a);
        for b in &paths {
            check_pair(a, b);
        }
    }
}

#[test]
fn every_node_of_t64_matches_the_vec_representation() {
    let paths = tree_paths(64);
    for a in &paths {
        check_one(a);
    }
    // Sorting exercises `Ord` across the whole tree; both orders agree.
    let mut ids: Vec<_> = paths.iter().map(acn_topology::ComponentId::from_path).collect();
    let mut old: Vec<_> =
        paths.iter().map(|p| reference::ComponentId { path: p.clone() }).collect();
    ids.sort();
    old.sort();
    let sorted: Vec<&[u8]> = ids.iter().map(acn_topology::ComponentId::path).collect();
    let expected: Vec<&[u8]> = old.iter().map(|o| o.path.as_slice()).collect();
    assert_eq!(sorted, expected);
    for pair in paths.windows(2) {
        check_pair(&pair[0], &pair[1]);
        check_pair(&pair[1], &pair[0]);
    }
}

/// Clamps raw steps into a valid descent of `T_w` (each step below the
/// arity of the kind reached so far).
fn valid_path(raw: Vec<u8>) -> Vec<u8> {
    let mut kind = ComponentKind::Bitonic;
    raw.into_iter()
        .map(|step| {
            let step = step % kind.arity() as u8;
            kind = kind.child_kind(usize::from(step)).expect("clamped");
            step
        })
        .collect()
}

proptest! {
    #[test]
    fn random_paths_match_the_vec_representation(
        a in proptest::collection::vec(0u8..6, 0..acn_topology::ComponentId::MAX_LEVEL + 1),
        b in proptest::collection::vec(0u8..6, 0..acn_topology::ComponentId::MAX_LEVEL + 1),
    ) {
        let (a, b) = (valid_path(a), valid_path(b));
        check_one(&a);
        check_one(&b);
        check_pair(&a, &b);
        check_pair(&a, &a);
        let id = acn_topology::ComponentId::from_path(&a);
        prop_assert_eq!(acn_topology::ComponentId::from_u64(id.to_u64()), id);
    }
}
