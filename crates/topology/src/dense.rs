//! Dense numbering of simulator ids, so per-node and per-link scratch in
//! the overlay build can live in plain `Vec`s instead of `HashMap`s.

/// An id set is compact — numbered by identity — when its largest id is
/// below `SPARSE_FACTOR * count + SPARSE_SLACK` (`count` ids seen).
const SPARSE_FACTOR: usize = 8;
const SPARSE_SLACK: usize = 1024;

/// Positions `0..len()` for a set of `u32` ids (node or link ids).
///
/// A captured view numbers nodes and links from zero, so its ids are
/// compact and map to themselves. A sparse set — a small domain restricted
/// out of a much larger network, or a malformed view naming
/// `NodeId(u32::MAX)` — maps each id to its rank among the sorted distinct
/// ids instead, so no table is ever sized by an id rather than by the data.
#[derive(Clone, Debug)]
pub(crate) enum Numbering {
    /// Id `i` is position `i`; the value is the table length.
    Identity(usize),
    /// The distinct ids, sorted; an id's position is its index here.
    Ranked(Vec<u32>),
}

impl Numbering {
    /// Number every id `ids` yields (repeats allowed).
    pub(crate) fn new(ids: impl Iterator<Item = u32> + Clone) -> Self {
        let (count, max) = ids.clone().fold((0usize, 0u32), |(n, m), id| (n + 1, m.max(id)));
        if (max as usize) < SPARSE_FACTOR * count + SPARSE_SLACK {
            Numbering::Identity(max as usize + 1)
        } else {
            let mut sorted: Vec<u32> = ids.collect();
            sorted.sort_unstable();
            sorted.dedup();
            Numbering::Ranked(sorted)
        }
    }

    /// Length of a table indexed by position.
    pub(crate) fn len(&self) -> usize {
        match self {
            Numbering::Identity(len) => *len,
            Numbering::Ranked(sorted) => sorted.len(),
        }
    }

    /// The position of `id` (`None` for an id outside the numbered set;
    /// under `Identity`, any id below `len()` has a position).
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        match self {
            Numbering::Identity(len) => ((id as usize) < *len).then_some(id as usize),
            Numbering::Ranked(sorted) => sorted.binary_search(&id).ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_ids_map_to_themselves() {
        let n = Numbering::new([3u32, 0, 7, 3].into_iter());
        assert!(matches!(n, Numbering::Identity(8)));
        assert_eq!(n.get(7), Some(7));
        assert_eq!(n.get(5), Some(5));
        assert_eq!(n.get(8), None);
    }

    #[test]
    fn sparse_ids_map_to_their_rank() {
        let n = Numbering::new([u32::MAX, 5, 70_000, 5].into_iter());
        assert!(matches!(n, Numbering::Ranked(_)));
        assert_eq!(n.len(), 3);
        assert_eq!(n.get(5), Some(0));
        assert_eq!(n.get(70_000), Some(1));
        assert_eq!(n.get(u32::MAX), Some(2));
        assert_eq!(n.get(6), None);
    }

    #[test]
    fn empty_set_numbers_nothing_useful() {
        let n = Numbering::new(std::iter::empty());
        assert!(n.len() <= 1);
        assert_eq!(n.get(9), None);
    }
}
