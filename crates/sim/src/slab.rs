//! A generation-checked slab: dense slots, a free list, and handles that
//! go stale when their value leaves.
//!
//! [`Slab`] keeps its values in a `Vec` of slots and hands out a
//! [`SlotRef`] — the slot's index and its generation — for every insert.
//! Removing a value bumps its slot's generation and pushes the slot onto an
//! intrusive free list, so the next insert reuses it in O(1) and a stale
//! `SlotRef` never reaches the value that moved in after it. Lookups index
//! the vector directly: no hashing, and memory proportional to the peak
//! number of live values rather than to how many were ever inserted.
//!
//! [`SlotTable`] is the companion side table: one optional value per slot
//! of some other slab, indexed by [`SlotRef::index`].

/// Names one value of a [`Slab`]: its slot, and the generation the slot
/// had when the value was inserted.
///
/// # Examples
///
/// ```
/// use throttledb_sim::{Slab, SlotRef};
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// assert_eq!(slab.remove(a), Some("a"));
/// // The slot is reused, but the old handle stays dead.
/// let b = slab.insert("b");
/// assert_eq!(a.index(), b.index());
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.get(b), Some(&"b"));
/// assert_eq!(SlotRef::from_bits(b.to_bits()), b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotRef {
    index: u32,
    generation: u32,
}

impl SlotRef {
    /// The slot's position in its slab.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Pack into one word, the generation in the high half: a fresh slab's
    /// first `n` inserts pack to `0..n`.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Unpack a word made by [`SlotRef::to_bits`].
    pub fn from_bits(bits: u64) -> SlotRef {
        SlotRef {
            index: bits as u32,
            generation: (bits >> 32) as u32,
        }
    }
}

/// End of the free list.
const NO_SLOT: u32 = u32::MAX;

/// One slot. The generation shares the variant tag's word, so a slot is one
/// word larger than its value, and a vacant slot links to the next free one
/// without a side vector.
#[derive(Debug, Clone)]
enum Slot<T> {
    Occupied { generation: u32, value: T },
    Vacant { generation: u32, next_free: u32 },
}

/// Values in dense slots, addressed by generation-checked [`SlotRef`]s.
///
/// Insert, lookup and remove are O(1). A removed value's slot is reused by
/// the next insert (last freed, first reused) with its generation bumped.
/// After 2³² reuses of one slot its generation wraps; a handle that old
/// would alias again.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Bytes one slot occupies: what each slot of capacity costs.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty slab; allocates nothing until the first insert.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `value` in the most recently freed slot, or a new one.
    pub fn insert(&mut self, value: T) -> SlotRef {
        self.len += 1;
        if self.free_head == NO_SLOT {
            let index = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NO_SLOT)
                .expect("a slab holds fewer than 2^32 - 1 slots");
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            return SlotRef {
                index,
                generation: 0,
            };
        }
        let index = self.free_head;
        let slot = &mut self.slots[index as usize];
        let Slot::Vacant {
            generation,
            next_free,
        } = *slot
        else {
            unreachable!("the free list holds only vacant slots");
        };
        self.free_head = next_free;
        *slot = Slot::Occupied { generation, value };
        SlotRef { index, generation }
    }

    /// The value `slot` names, if it is still live.
    pub fn get(&self, slot: SlotRef) -> Option<&T> {
        match self.slots.get(slot.index())? {
            Slot::Occupied { generation, value } if *generation == slot.generation => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value `slot` names, if it is still live.
    pub fn get_mut(&mut self, slot: SlotRef) -> Option<&mut T> {
        match self.slots.get_mut(slot.index())? {
            Slot::Occupied { generation, value } if *generation == slot.generation => Some(value),
            _ => None,
        }
    }

    /// Take the value `slot` names out, freeing the slot; `None` (and no
    /// change) when the handle is stale.
    pub fn remove(&mut self, slot: SlotRef) -> Option<T> {
        self.get(slot)?;
        let vacant = Slot::Vacant {
            generation: slot.generation.wrapping_add(1),
            next_free: self.free_head,
        };
        let Slot::Occupied { value, .. } = std::mem::replace(&mut self.slots[slot.index()], vacant)
        else {
            unreachable!("`get` found the slot occupied");
        };
        self.free_head = slot.index;
        self.len -= 1;
        Some(value)
    }

    /// The live values with their handles, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotRef, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    SlotRef {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }

    /// The live values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, value)| value)
    }
}

/// One optional value per slot of some other structure, indexed by the
/// slot's position ([`SlotRef::index`]): a `Vec<Option<V>>` that grows on
/// demand to the highest slot set, so it stays as long as the peak live
/// count of a slab whose slots it shadows.
#[derive(Debug, Clone)]
pub struct SlotTable<V> {
    entries: Vec<Option<V>>,
}

impl<V> Default for SlotTable<V> {
    fn default() -> Self {
        SlotTable::new()
    }
}

impl<V> SlotTable<V> {
    /// An empty table; allocates nothing until the first `set`.
    pub const fn new() -> Self {
        SlotTable {
            entries: Vec::new(),
        }
    }

    /// The value at `index`, if one is set.
    pub fn get(&self, index: usize) -> Option<&V> {
        self.entries.get(index)?.as_ref()
    }

    /// Set the value at `index`, growing the table to reach it; returns the
    /// value it replaces.
    pub fn set(&mut self, index: usize, value: V) -> Option<V> {
        if index >= self.entries.len() {
            self.entries.resize_with(index + 1, || None);
        }
        self.entries[index].replace(value)
    }

    /// Clear the value at `index`, returning it.
    pub fn take(&mut self, index: usize) -> Option<V> {
        self.entries.get_mut(index)?.take()
    }

    /// The set values, in index order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_inserts_pack_to_consecutive_words() {
        let mut slab = Slab::new();
        let bits: Vec<u64> = (0..4).map(|i| slab.insert(i).to_bits()).collect();
        assert_eq!(bits, vec![0, 1, 2, 3]);
        assert_eq!(slab.len(), 4);
    }

    #[test]
    fn the_last_freed_slot_is_reused_with_a_new_generation() {
        let mut slab = Slab::new();
        let a = slab.insert('a');
        let b = slab.insert('b');
        slab.remove(a);
        slab.remove(b);
        let c = slab.insert('c');
        assert_eq!(c.to_bits(), 1 << 32 | b.to_bits());
        let d = slab.insert('d');
        assert_eq!(d.to_bits(), 1 << 32 | a.to_bits());
        assert_eq!(slab.remove(b), None, "a stale handle removes nothing");
        assert_eq!(slab.values().copied().collect::<String>(), "dc");
    }

    #[test]
    fn a_slot_is_one_word_larger_than_its_value() {
        assert_eq!(Slab::<[u64; 4]>::SLOT_BYTES, 40);
        assert_eq!(Slab::<()>::SLOT_BYTES, 12);
    }

    #[test]
    fn slot_table_grows_to_the_slot_it_is_given() {
        let mut table = SlotTable::new();
        assert_eq!(table.get(3), None);
        assert_eq!(table.set(3, 'x'), None);
        assert_eq!(table.set(3, 'y'), Some('x'));
        assert_eq!(table.get(3), Some(&'y'));
        assert_eq!(table.take(3), Some('y'));
        assert_eq!(table.take(3), None);
        assert_eq!(table.take(99), None);
        table.set(1, 'a');
        assert_eq!(table.values().collect::<Vec<_>>(), [&'a']);
        assert_eq!(table.take(1), Some('a'));
        assert_eq!(table.values().count(), 0);
    }
}
