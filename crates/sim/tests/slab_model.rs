//! Model test: [`Slab`] against a `HashMap` keyed by every handle ever
//! issued. Inserts, removes and lookups are interleaved at random, and the
//! handles picked include removed ones: a stale [`SlotRef`] must find and
//! remove nothing, even after its slot has been reused.

use proptest::prelude::*;
use std::collections::HashMap;
use throttledb_sim::{Slab, SlotRef};

proptest! {
    #[test]
    fn slab_matches_a_hash_map_model(
        ops in proptest::collection::vec((0u8..4, 0usize..64, 0u64..1_000), 1..400),
    ) {
        let mut slab = Slab::new();
        let mut model: HashMap<SlotRef, u64> = HashMap::new();
        let mut issued: Vec<SlotRef> = Vec::new();
        let mut peak = 0;
        for (op, pick, value) in ops {
            // The most recent handles, live or stale.
            let handle = issued.len().checked_sub(1 + pick % issued.len().max(1)).map(|i| issued[i]);
            match (op, handle) {
                (0 | 1, _) | (_, None) => {
                    let slot = slab.insert(value);
                    prop_assert!(!issued.contains(&slot), "a handle was issued twice");
                    model.insert(slot, value);
                    issued.push(slot);
                }
                (2, Some(slot)) => {
                    prop_assert_eq!(slab.remove(slot), model.remove(&slot));
                }
                (_, Some(slot)) => {
                    if let Some(v) = slab.get_mut(slot) {
                        *v += 1;
                    }
                    if let Some(v) = model.get_mut(&slot) {
                        *v += 1;
                    }
                }
            }
            peak = peak.max(model.len());
            prop_assert_eq!(slab.len(), model.len());
            for &slot in &issued {
                prop_assert_eq!(slab.get(slot), model.get(&slot));
            }
            let mut live: Vec<(SlotRef, u64)> = slab.iter().map(|(s, &v)| (s, v)).collect();
            let mut want: Vec<(SlotRef, u64)> = model.iter().map(|(&s, &v)| (s, v)).collect();
            live.sort();
            want.sort();
            prop_assert_eq!(live, want);
            // Freed slots are reused before new ones are made.
            let slots = issued.iter().map(|s| s.index() + 1).max().unwrap_or(0);
            prop_assert_eq!(slots, peak);
        }
    }
}
