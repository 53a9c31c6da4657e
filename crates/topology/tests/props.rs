//! Property tests for the decomposition topology.

use acn_topology::{
    child_output_destination, network_input_address, parent_input_to_child, phi, ChildOutput,
    ComponentId, ComponentKind, Cut, Tree, WiringStyle,
};
use proptest::prelude::*;

proptest! {
    /// Pre-order naming round-trips for every node of every tree.
    #[test]
    fn preorder_roundtrip(logw in 1u32..7, index_seed in any::<u64>()) {
        let tree = Tree::new(1 << logw);
        let index = index_seed % tree.node_count();
        let id = tree.from_preorder_index(index).expect("in range");
        prop_assert_eq!(tree.preorder_index(&id), index);
    }

    /// Packed u64 ids round-trip for arbitrary valid paths.
    #[test]
    fn packed_id_roundtrip(path in proptest::collection::vec(0u8..6, 0..12)) {
        // Make the path a valid kind descent by clamping indices.
        let mut valid = Vec::new();
        let mut kind = ComponentKind::Bitonic;
        for step in path {
            let arity = kind.arity() as u8;
            let step = step % arity;
            valid.push(step);
            kind = kind.child_kind(step as usize).expect("clamped");
        }
        let id = ComponentId::from_path(valid);
        prop_assert_eq!(ComponentId::from_u64(id.to_u64()), id);
    }

    /// The decomposition port maps are mutually consistent bijections.
    #[test]
    fn port_maps_bijective(
        kind in proptest::sample::select(vec![
            ComponentKind::Bitonic, ComponentKind::Merger, ComponentKind::Mix
        ]),
        logw in 2u32..7,
        style in proptest::sample::select(vec![WiringStyle::Ahs, WiringStyle::PaperLiteral]),
    ) {
        let width = 1usize << logw;
        let half = width / 2;
        let mut fed = std::collections::HashSet::new();
        for port in 0..width {
            prop_assert!(fed.insert(parent_input_to_child(kind, width, port, style)));
        }
        let mut parent_out = std::collections::HashSet::new();
        for child in 0..kind.arity() {
            for port in 0..half {
                match child_output_destination(kind, width, child, port, style) {
                    ChildOutput::Sibling { child: c, port: p } => {
                        prop_assert!(fed.insert((c, p)));
                    }
                    ChildOutput::Parent { port: p } => {
                        prop_assert!(parent_out.insert(p));
                    }
                }
            }
        }
        prop_assert_eq!(fed.len(), kind.arity() * half);
        prop_assert_eq!(parent_out.len(), width);
    }

    /// phi respects Fact 1 for all levels.
    #[test]
    fn phi_fact_1(k in 0usize..30) {
        prop_assert!(phi(k + 1) >= 2 * phi(k));
        prop_assert!(phi(k + 1) <= 6 * phi(k));
    }

    /// Input-wire addresses are distinct and always resolvable under the
    /// uniform cuts.
    #[test]
    fn input_addresses_distinct(logw in 1u32..7) {
        let w = 1usize << logw;
        let tree = Tree::new(w);
        let mut seen = std::collections::HashSet::new();
        for wire in 0..w {
            let addr = network_input_address(&tree, wire, WiringStyle::Ahs);
            prop_assert!(seen.insert(addr));
            for level in 0..=tree.max_level() {
                let cut = Cut::uniform(&tree, level);
                prop_assert!(addr.owner_under(&cut).is_some());
            }
        }
    }
}
