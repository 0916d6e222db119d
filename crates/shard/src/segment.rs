//! One shard of a range-partitioned sketch index.
//!
//! A [`ShardSegment`] is the serving-side unit of the divide-the-sketches
//! structure: it owns **no set data** — a shard's sets are exactly the
//! contiguous arena range `[start, start + len)` of the shared
//! [`imm_rrr::RrrCollection`], borrowed on demand as a zero-copy
//! [`imm_rrr::CollectionSlice`] — plus its *own* inverted vertex → set
//! postings and occurrence counts over that range. Postings store **local**
//! set ids (`0..len`), so a segment's working state (alive flags, marking
//! bitsets) is sized to the shard, not to θ, and a worker thread counting
//! over one shard never touches another shard's structures.

use imm_rrr::{CollectionSlice, NodeId, RrrCollection};
use imm_service::{IndexError, PostingsStore};

/// Identifier of one RRR set *inside its shard* (`0..segment.len()`).
pub type LocalSetId = u32;

/// One shard: a contiguous set range plus its own postings and counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSegment {
    /// Global id of the first set of the range.
    start: usize,
    /// Number of sets in the range.
    len: usize,
    /// Local ids of the sets containing each vertex — the same store a
    /// [`imm_service::SketchIndex`] keeps, heap-built or mapped.
    postings: PostingsStore,
}

impl ShardSegment {
    /// Build the segment over `collection.slice(start, len)` with the
    /// shared postings builder (one streaming pass for the occurrence
    /// counts, one for the CSR fill).
    pub fn build(collection: &RrrCollection, start: usize, len: usize) -> Result<Self, IndexError> {
        let postings = PostingsStore::build(collection.slice(start, len))?;
        Ok(ShardSegment { start, len, postings })
    }

    /// Adopt an existing postings store over the range `[start, start +
    /// len)` — a single index becoming one shard keeps its heap or mapped
    /// postings instead of rebuilding them.
    pub(crate) fn from_postings(start: usize, len: usize, postings: PostingsStore) -> Self {
        ShardSegment { start, len, postings }
    }

    /// Global id of the shard's first set.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of sets in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shard's global set-id range.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }

    /// Local ids of the shard's sets containing `v`, in increasing order.
    #[inline]
    pub fn postings(&self, v: NodeId) -> &[LocalSetId] {
        self.postings.get(v)
    }

    /// How many of the shard's sets contain `v` — the shard's contribution
    /// to the vertex's global occurrence count.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u64 {
        self.postings.degree(v)
    }

    /// Total postings entries of the shard (Σ over vertices of
    /// [`ShardSegment::degree`]) — the shard's contribution to a serving
    /// cost model.
    #[inline]
    pub fn postings_entries(&self) -> u64 {
        self.postings.num_postings() as u64
    }

    /// Whether the postings are borrowed from a shared (e.g. memory-mapped)
    /// buffer rather than heap-built.
    #[inline]
    pub fn is_postings_shared(&self) -> bool {
        self.postings.is_shared()
    }

    /// Borrow the shard's sets out of the shared collection (zero-copy).
    #[inline]
    pub fn slice<'a>(&self, collection: &'a RrrCollection) -> CollectionSlice<'a> {
        collection.slice(self.start, self.len)
    }

    /// Heap bytes of the segment's own structures (the shared arena is
    /// accounted by the collection, not per shard).
    pub fn memory_bytes(&self) -> usize {
        self.postings.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::RrrSet;

    fn figure3_collection() -> RrrCollection {
        let sets: &[&[NodeId]] =
            &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let mut c = RrrCollection::new(6);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        c
    }

    #[test]
    fn segment_postings_are_local_and_match_the_range() {
        let c = figure3_collection();
        // Shard over sets 2..6 ({2,4}, {1,4}, {1,4,5}, {3}).
        let seg = ShardSegment::build(&c, 2, 4).unwrap();
        assert_eq!(seg.range(), 2..6);
        assert_eq!(seg.postings(4), &[0, 1, 2], "local ids of sets 2, 3, 4");
        assert_eq!(seg.postings(1), &[1, 2]);
        assert_eq!(seg.postings(3), &[3]);
        assert!(seg.postings(0).is_empty(), "vertex 0 only occurs outside the range");
        assert_eq!(seg.degree(4), 3);
        assert_eq!(seg.degree(0), 0);
        assert_eq!(seg.slice(&c).get(3).to_vec(), vec![3]);
    }

    #[test]
    fn shard_degrees_sum_to_the_global_occurrence_counts() {
        let c = figure3_collection();
        let full = ShardSegment::build(&c, 0, c.len()).unwrap();
        let parts = [
            ShardSegment::build(&c, 0, 3).unwrap(),
            ShardSegment::build(&c, 3, 3).unwrap(),
            ShardSegment::build(&c, 6, 2).unwrap(),
        ];
        for v in 0..6u32 {
            let summed: u64 = parts.iter().map(|p| p.degree(v)).sum();
            assert_eq!(summed, full.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn out_of_range_members_are_rejected() {
        let mut c = RrrCollection::new(4);
        c.push(RrrSet::sorted(vec![0, 9]));
        assert_eq!(
            ShardSegment::build(&c, 0, 1),
            Err(IndexError::VertexOutOfRange { vertex: 9, num_nodes: 4 })
        );
    }

    #[test]
    fn empty_segments_are_fine() {
        let c = figure3_collection();
        let seg = ShardSegment::build(&c, 8, 0).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.degree(1), 0);
    }
}
