//! Content digests used for cheap equality checks, and the bounded
//! [`DigestIndex`] behind content-addressed write deduplication.
//!
//! [`Digest`] is XXH64 with seed 0 (see the xxHash specification,
//! `doc/xxhash_spec.md` in the xxHash repository): four independent
//! 64-bit lanes absorb 32-byte stripes, so it runs at memory speed
//! rather than one dependent multiply per byte. It is the `RecordLog`
//! checksum and the weak dedup content key.
//!
//! The weak key is collidable on purpose. Nothing trusts it alone: it
//! only nominates a candidate, and dedup safety rests on the byte
//! comparison against a stored replica
//! ([`crate::Payload::content_eq`]) that every weak hit must pass
//! before reuse. Anyone able to choose chunk contents can construct an
//! XXH64 collision; the worst they get is a failed verification and a
//! fresh push. Dedup consumers also key by payload *length*, shrinking
//! the collision scope to equal-sized chunks. Deployments that want to
//! skip the verification round use the collision-resistant SHA-256
//! [`ContentDigest::Strong`] key instead.

use crate::FastMap;
use std::collections::VecDeque;

/// A 64-bit XXH64 digest (seed 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per stripe: one 8-byte lane for each of the four accumulators.
const STRIPE: usize = 32;

#[inline(always)]
fn lane(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte lane"))
}

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(acc: u64, v: u64) -> u64 {
    (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// Incremental XXH64 hasher. Input may arrive in pieces of any size:
/// a partial stripe is buffered until the next [`Hasher::update`]
/// completes it, so the digest depends only on the concatenated bytes.
#[derive(Debug, Clone)]
pub struct Hasher {
    acc: [u64; 4],
    buf: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Self {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }

    /// Absorb whole stripes from `data` (whose length is a multiple of
    /// [`STRIPE`]).
    #[inline]
    fn stripes(&mut self, data: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.acc;
        for s in data.chunks_exact(STRIPE) {
            a = round(a, lane(&s[0..]));
            b = round(b, lane(&s[8..]));
            c = round(c, lane(&s[16..]));
            d = round(d, lane(&s[24..]));
        }
        self.acc = [a, b, c, d];
    }

    /// Absorb bytes.
    #[inline]
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.buffered > 0 {
            let n = data.len().min(STRIPE - self.buffered);
            self.buf[self.buffered..self.buffered + n].copy_from_slice(&data[..n]);
            self.buffered += n;
            data = &data[n..];
            if self.buffered < STRIPE {
                return;
            }
            let stripe = self.buf;
            self.stripes(&stripe);
            self.buffered = 0;
        }
        let whole = data.len() - data.len() % STRIPE;
        self.stripes(&data[..whole]);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finish and produce the digest (the hasher may keep absorbing).
    pub fn finish(&self) -> Digest {
        let [a, b, c, d] = self.acc;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(h, merge)
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buffered];
        while tail.len() >= 8 {
            h = (h ^ round(0, lane(tail)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word"));
            h = (h ^ u64::from(w).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h = (h ^ u64::from(byte).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        Digest(h)
    }
}

impl Digest {
    /// Digest a byte slice in one call.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Hasher::new();
        h.update(data);
        h.finish()
    }
}

/// Two different `len`-byte inputs (`len` ≥ 64) with the same XXH64
/// digest, built the way an adversary would: the first stripes differ
/// in every lane, and the second stripe of the other input is solved so
/// that every accumulator lands on the same state (each lane enters its
/// accumulator additively through an odd multiplier, so it can be
/// solved for exactly); everything after is shared.
#[cfg(test)]
pub(crate) fn colliding_pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    assert!(len >= 2 * STRIPE);
    let a: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
    let mut b = a.clone();
    for byte in &mut b[..STRIPE] {
        *byte ^= 0xA5;
    }
    let (mut ha, mut hb) = (Hasher::new(), Hasher::new());
    ha.update(&a[..STRIPE]);
    hb.update(&b[..STRIPE]);
    // Inverse of P2 modulo 2^64 by Newton iteration.
    let mut inv = P2;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P2.wrapping_mul(inv)));
    }
    for i in 0..4 {
        let at = STRIPE + 8 * i;
        let fix = ha.acc[i].wrapping_sub(hb.acc[i]).wrapping_mul(inv);
        b[at..at + 8].copy_from_slice(&lane(&a[at..]).wrapping_add(fix).to_le_bytes());
    }
    (a, b)
}

/// The digest half of a [`ContentKey`]: which hash identified the
/// content, and its value.
///
/// The two variants correspond to the dedup pipeline's two trust levels.
/// A [`ContentDigest::Weak`] (64-bit XXH64) hit is *advisory*: the
/// consumer must byte-verify the stored replica before reusing it,
/// because 64 bits are not collision-proof. A [`ContentDigest::Strong`]
/// (SHA-256) hit is collision-resistant, so the verification round can
/// be skipped — the trade a real deployment makes when the digest cost
/// is cheaper than the verify round trip. The variants never compare
/// equal, so a deployment switching modes mid-life simply re-indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentDigest {
    /// 64-bit XXH64: cheap, advisory, requires byte verification.
    Weak(Digest),
    /// SHA-256: collision-resistant, trusted without verification.
    Strong(crate::sha256::Sha256Digest),
}

impl ContentDigest {
    /// Whether a hit on this digest can be trusted without a byte
    /// comparison against a stored replica.
    pub fn is_collision_resistant(&self) -> bool {
        matches!(self, ContentDigest::Strong(_))
    }
}

/// Content key of a payload for dedup purposes: `(length, digest)`.
/// Keying by length as well as digest confines hash collisions to
/// equal-sized payloads.
pub type ContentKey = (u64, ContentDigest);

/// A bounded content-addressed index: maps [`ContentKey`]s to arbitrary
/// values (e.g. chunk descriptors), evicting the oldest *live* entry
/// once the capacity is reached (insertion order; re-inserting a key
/// refreshes its position). Stale queue slots — left behind by
/// [`DigestIndex::remove`] or by re-inserts — are sequence-stamped so
/// they can never evict a live entry in their place.
#[derive(Debug)]
pub struct DigestIndex<V> {
    /// Live entries, each stamped with the sequence of the insert that
    /// produced it.
    map: FastMap<ContentKey, (u64, V)>,
    /// Insertion-order queue of `(key, seq)` slots; a slot is live iff
    /// its seq matches the map's current stamp for that key.
    order: VecDeque<(ContentKey, u64)>,
    seq: u64,
    cap: usize,
}

impl<V> DigestIndex<V> {
    /// An index holding at most `cap` entries (`cap == 0` disables it:
    /// every insert is dropped, every lookup misses).
    pub fn new(cap: usize) -> Self {
        Self {
            map: FastMap::default(),
            order: VecDeque::new(),
            seq: 0,
            cap,
        }
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Look up a content key.
    pub fn get(&self, key: &ContentKey) -> Option<&V> {
        self.map.get(key).map(|(_, v)| v)
    }

    /// Whether a queue slot no longer corresponds to a live entry.
    fn is_stale(map: &FastMap<ContentKey, (u64, V)>, slot: &(ContentKey, u64)) -> bool {
        map.get(&slot.0).is_none_or(|(cur, _)| *cur != slot.1)
    }

    /// Insert (or replace) an entry, evicting the oldest live one if the
    /// index is full.
    pub fn insert(&mut self, key: ContentKey, value: V) {
        if self.cap == 0 {
            return;
        }
        self.seq += 1;
        self.map.insert(key, (self.seq, value));
        self.order.push_back((key, self.seq));
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some(slot) => {
                    // Stale slots (removed or re-inserted keys) remove
                    // nothing; keep popping until a live entry leaves.
                    if !Self::is_stale(&self.map, &slot) {
                        self.map.remove(&slot.0);
                    }
                }
                None => break,
            }
        }
        // Drain the stale prefix, then compact the whole queue once
        // stale slots outnumber live entries. The prefix drain alone is
        // not enough: a live, never-refreshed key parked at the front
        // (e.g. content committed once, early) would shield an unbounded
        // tail of stale slots from every future re-insert. Compaction is
        // O(queue) but runs only after the queue doubles, so inserts
        // stay amortized O(1) and `order.len() ≤ max(2·len(), 8)`.
        while self
            .order
            .front()
            .is_some_and(|slot| Self::is_stale(&self.map, slot))
        {
            self.order.pop_front();
        }
        if self.order.len() > self.map.len().saturating_mul(2).max(8) {
            self.order.retain(|slot| !Self::is_stale(&self.map, slot));
        }
    }

    /// Drop an entry (e.g. after the consumer found it stale). The
    /// insertion-order queue keeps a stale slot that eviction skips.
    pub fn remove(&mut self, key: &ContentKey) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Drop every entry matching `pred`, returning how many left. This
    /// is the garbage-collection hook: when stored content is reclaimed
    /// (its chunk freed), the index entries that point at it must go —
    /// by *value* predicate, because the collector knows what it freed
    /// (a chunk id), not the content keys that mapped to it. O(len);
    /// collectors batch their evictions so the scan runs once per GC
    /// pass, not once per freed chunk.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&ContentKey, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, (_, v)| !pred(k, v));
        before - self.map.len()
    }

    /// Iterate the live entries (GC reverse-lookup and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&ContentKey, &V)> {
        self.map.iter().map(|(k, (_, v))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(Digest::of(b""), Digest(0xEF46_DB37_51D8_E999));
        assert_eq!(Digest::of(b"abc"), Digest(0x44BC_2CF5_AD77_0999));
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = Digest::of(&data);
        for split in 0..=data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        // Every prefix length exercises a different tail path.
        for n in 0..data.len() {
            let mut h = Hasher::new();
            for b in &data[..n] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finish(), Digest::of(&data[..n]), "prefix {n}");
        }
    }

    #[test]
    fn incremental_equals_oneshot_in_any_piece_size() {
        let data: Vec<u8> = (0..64u64 << 10)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        let whole = Digest::of(&data);
        for piece in [1, 7, 31, 32, 33, 4096] {
            let mut h = Hasher::new();
            for p in data.chunks(piece) {
                h.update(p);
            }
            assert_eq!(h.finish(), whole, "{piece}-byte pieces");
        }
    }

    #[test]
    fn finish_does_not_consume() {
        let mut h = Hasher::new();
        h.update(b"hello ");
        assert_eq!(h.finish(), Digest::of(b"hello "));
        h.update(b"world");
        assert_eq!(h.finish(), Digest::of(b"hello world"));
    }

    #[test]
    fn constructed_collision_collides() {
        for len in [64, 128, 64 << 10] {
            let (a, b) = colliding_pair(len);
            assert_ne!(a, b);
            assert_eq!(Digest::of(&a), Digest::of(&b), "{len} bytes");
        }
    }

    #[test]
    fn order_matters() {
        assert_ne!(Digest::of(b"ab"), Digest::of(b"ba"));
    }

    #[test]
    fn index_roundtrip_and_fifo_eviction() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        assert_eq!(idx.get(&k(1)), Some(&10));
        // Third insert evicts the oldest (1), not the most recent.
        idx.insert(k(3), 30);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(&k(1)), None);
        assert_eq!(idx.get(&k(2)), Some(&20));
        assert_eq!(idx.get(&k(3)), Some(&30));
    }

    #[test]
    fn index_explicit_removal_leaves_queue_consistent() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        assert_eq!(idx.remove(&k(1)), Some(10));
        // The freed slot is really free: inserting 3 must NOT evict the
        // live 2 (the stale queue slot for 1 does not count against the
        // capacity).
        idx.insert(k(3), 30);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(&k(2)), Some(&20));
        // One more insert overflows for real and evicts the oldest live
        // entry (2), never losing the newest.
        idx.insert(k(4), 40);
        assert!(idx.len() <= 2);
        assert_eq!(idx.get(&k(2)), None);
        assert_eq!(idx.get(&k(3)), Some(&30));
        assert_eq!(idx.get(&k(4)), Some(&40));
    }

    #[test]
    fn reinserted_key_survives_its_own_stale_slot() {
        // remove + re-insert leaves a stale queue slot for the same key;
        // a later overflow must evict the oldest *live* entry, never the
        // freshly re-inserted one (the dedup pipeline hits this via
        // digest_forget followed by digest_record of the same content).
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        idx.remove(&k(1));
        idx.insert(k(1), 11); // re-insert: queue now holds a stale slot for 1
        idx.insert(k(3), 30); // overflow: 2 is the oldest live entry
        assert_eq!(idx.get(&k(1)), Some(&11), "re-insert must survive");
        assert_eq!(idx.get(&k(2)), None);
        assert_eq!(idx.get(&k(3)), Some(&30));
        assert!(idx.len() <= 2);
    }

    #[test]
    fn refresh_churn_keeps_queue_bounded() {
        // The dedup pipeline re-records every unique key on every
        // commit. A live key parked at the queue front (content
        // committed once, never again) must not shield the stale slots
        // that refreshes of *other* keys leave behind — the queue stays
        // proportional to the live entries, not the commit count.
        let mut idx: DigestIndex<u32> = DigestIndex::new(1 << 16);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(0), 0); // parked live front slot
        for round in 0..10_000u32 {
            idx.insert(k(1), round); // the same checkpoint key, refreshed
        }
        assert_eq!(idx.len(), 2);
        assert!(
            idx.order.len() <= 8,
            "queue grew to {} slots for 2 live entries",
            idx.order.len()
        );
        assert_eq!(idx.get(&k(0)), Some(&0));
        assert_eq!(idx.get(&k(1)), Some(&9_999));
    }

    #[test]
    fn zero_capacity_index_is_inert() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(0);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 10);
        assert!(idx.is_empty());
        assert_eq!(idx.get(&(1, ContentDigest::Weak(Digest(1)))), None);
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(4);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 10);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 11);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&(1, ContentDigest::Weak(Digest(1)))), Some(&11));
    }
}
