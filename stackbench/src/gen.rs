//! The seeded input generator. Every byte the benchmark stores, and
//! every byte it expects back, is derived here from the workload seed;
//! the stack only ever receives these generated, fully materialized
//! bytes (`Payload::from_bytes`, never a synthetic descriptor).

use bff_data::{Payload, SegView};
use std::ops::Range;

/// Chunk (stripe) size of every workload.
pub const CHUNK: u64 = 64 << 10;

/// Guest reads start on this alignment.
const SECTOR: u64 = 4 << 10;

/// Length of one guest read: fixed, and each read stays inside one
/// chunk, so every seed asks the same amount of work of a boot.
const READ_LEN: u64 = CHUNK / 2;

/// splitmix64: a small, fast, seedable generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// `v` in a uniformly random order (Fisher–Yates).
    pub fn shuffled(&mut self, mut v: Vec<u64>) -> Vec<u64> {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        let mut words = out.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// `len` bytes of stream `stream` of `seed`.
fn bytes(seed: u64, stream: u64, len: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    Rng::new(seed, stream).fill(&mut v);
    v
}

/// A family of images that share a stated set of chunks, each with the
/// guest read sequence a boot of it issues.
pub struct ImageSet {
    /// Full contents of each image.
    pub images: Vec<Vec<u8>>,
    /// Per image, the byte ranges one boot reads, in order.
    pub boot_reads: Vec<Vec<Range<u64>>>,
    /// Chunks per image.
    pub chunks: u64,
    /// Chunk positions whose bytes are identical in every image.
    pub shared_chunks: u64,
}

impl ImageSet {
    /// `count` images of `chunks` chunks each. `shared_chunks` chunk
    /// positions (the same positions in every image) hold identical
    /// bytes — the common base of an image family; the rest is unique
    /// per image. A boot reads `touch_pct`% of the chunk positions
    /// (rounded up; a seeded subset per image) in ascending order: one
    /// sector-aligned half-chunk read at a seeded offset inside each.
    pub fn generate(
        seed: u64,
        count: u64,
        chunks: u64,
        shared_chunks: u64,
        touch_pct: u64,
    ) -> Self {
        assert!(shared_chunks <= chunks);
        let positions = Rng::new(seed, 1).shuffled((0..chunks).collect());
        let shared: Vec<bool> = {
            let mut s = vec![false; chunks as usize];
            for &p in &positions[..shared_chunks as usize] {
                s[p as usize] = true;
            }
            s
        };
        let len = chunks * CHUNK;
        let images = (0..count)
            .map(|img| {
                let mut data = vec![0u8; len as usize];
                for c in 0..chunks {
                    let stream = if shared[c as usize] {
                        0x5_0000 + c
                    } else {
                        0x10_0000 + img * chunks + c
                    };
                    let at = (c * CHUNK) as usize;
                    Rng::new(seed, stream).fill(&mut data[at..at + CHUNK as usize]);
                }
                data
            })
            .collect();
        // Stratified: every seed touches the same number of shared and
        // of unique chunks, so the work a boot asks for does not depend
        // on the seed.
        let (shared_pos, unique_pos): (Vec<u64>, Vec<u64>) =
            (0..chunks).partition(|&c| shared[c as usize]);
        let touch_shared = (shared_pos.len() as u64 * touch_pct).div_ceil(100) as usize;
        let touch_unique = (unique_pos.len() as u64 * touch_pct).div_ceil(100) as usize;
        let boot_reads = (0..count)
            .map(|img| {
                let mut rng = Rng::new(seed, 0x20_0000 + img);
                let mut picked = rng.shuffled(shared_pos.clone());
                picked.truncate(touch_shared);
                picked.extend(
                    rng.shuffled(unique_pos.clone())
                        .into_iter()
                        .take(touch_unique),
                );
                picked.sort_unstable();
                picked
                    .into_iter()
                    .map(|c| {
                        let start = c * CHUNK + SECTOR * rng.below((CHUNK - READ_LEN) / SECTOR + 1);
                        start..start + READ_LEN
                    })
                    .collect()
            })
            .collect();
        Self {
            images,
            boot_reads,
            chunks,
            shared_chunks,
        }
    }

    /// Bytes of one image (all images have the same size).
    pub fn image_bytes(&self) -> u64 {
        self.chunks * CHUNK
    }

    /// Distinct bytes across the whole family.
    pub fn distinct_bytes(&self) -> u64 {
        let unique = self.chunks - self.shared_chunks;
        (self.shared_chunks + unique * self.images.len() as u64) * CHUNK
    }
}

/// Where a churn snapshot's dirty set lands: one shared chunk then one
/// private chunk, chunk-aligned so every COMMIT carries whole chunks.
pub const DIRTY_AT: u64 = 2 * CHUNK;
pub const SHARED_LEN: u64 = CHUNK;
pub const PRIVATE_LEN: u64 = CHUNK;

/// Distinct shared chunks: round `r` writes variant `r mod
/// SHARED_VARIANTS`, so a live copy of every variant nearly always
/// exists and the dedup probe finds it however far apart the clients'
/// rounds drift.
pub const SHARED_VARIANTS: u64 = 4;

/// The dirty set of one churn cycle: `round`'s shared chunk (identical
/// for every client in that round) and the private chunk of `(client,
/// round)`. Knowing these two numbers is enough to regenerate the
/// snapshot's full contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dirt {
    pub round: u64,
    pub client: u64,
}

impl Dirt {
    pub fn shared(self, seed: u64) -> Vec<u8> {
        bytes(seed, 0x30_0000 + self.round % SHARED_VARIANTS, SHARED_LEN)
    }

    pub fn private(self, seed: u64) -> Vec<u8> {
        bytes(
            seed,
            0x40_0000 + (self.client << 32) + self.round,
            PRIVATE_LEN,
        )
    }
}

/// Expected bytes of `range` of a churn snapshot: the base image, with
/// the dirty region of the snapshot's last cycle (every cycle rewrites
/// the whole region, so only the last one shows).
pub fn churn_expected(seed: u64, base: &[u8], dirt: Option<Dirt>, range: Range<u64>) -> Vec<u8> {
    let mut out = base[range.start as usize..range.end as usize].to_vec();
    if let Some(d) = dirt {
        let mut overlay = d.shared(seed);
        overlay.extend_from_slice(&d.private(seed));
        let lo = range.start.max(DIRTY_AT);
        let hi = range.end.min(DIRTY_AT + overlay.len() as u64);
        if lo < hi {
            out[(lo - range.start) as usize..(hi - range.start) as usize]
                .copy_from_slice(&overlay[(lo - DIRTY_AT) as usize..(hi - DIRTY_AT) as usize]);
        }
    }
    out
}

/// Whether `got` holds exactly `expected`, compared segment by segment
/// with plain slice comparison. A synthetic segment is always a
/// mismatch: the benchmark never stores one.
pub fn matches(got: &Payload, expected: &[u8]) -> bool {
    if got.len() != expected.len() as u64 {
        return false;
    }
    let mut off = 0usize;
    for seg in got.segments() {
        match seg {
            SegView::Bytes(b) => {
                if b != &expected[off..off + b.len()] {
                    return false;
                }
                off += b.len();
            }
            SegView::Zero { len } => {
                let end = off + len as usize;
                if expected[off..end].iter().any(|&x| x != 0) {
                    return false;
                }
                off = end;
            }
            SegView::Synth { .. } => return false,
        }
    }
    true
}

/// `got` with one byte flipped: the corruption the self-test injects to
/// prove verification catches it.
pub fn flipped(got: &Payload) -> Payload {
    let mut v = got.materialize();
    if let Some(b) = v.get_mut(got.len() as usize / 2) {
        *b ^= 0x01;
    }
    Payload::from_bytes(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = ImageSet::generate(7, 3, 8, 2, 75);
        let b = ImageSet::generate(7, 3, 8, 2, 75);
        let c = ImageSet::generate(8, 3, 8, 2, 75);
        assert_eq!(a.images, b.images);
        assert_eq!(a.boot_reads, b.boot_reads);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn shared_chunks_are_identical_and_the_rest_distinct() {
        let set = ImageSet::generate(1, 3, 8, 3, 75);
        let chunk =
            |img: usize, c: usize| &set.images[img][c * CHUNK as usize..(c + 1) * CHUNK as usize];
        let same = (0..8).filter(|&c| chunk(0, c) == chunk(1, c)).count();
        assert_eq!(same, 3);
        assert_eq!(set.distinct_bytes(), (3 + 5 * 3) * CHUNK);
        for reads in &set.boot_reads {
            assert!(reads
                .iter()
                .all(|r| r.start < r.end && r.end <= set.image_bytes()));
        }
    }

    #[test]
    fn matches_uses_exact_bytes() {
        let data = bytes(3, 4, 1000);
        let p = Payload::from_bytes(data.clone());
        assert!(matches(&p, &data));
        assert!(!matches(&flipped(&p), &data));
        assert!(!matches(&p, &data[..999]));
        assert!(matches(&Payload::zeros(16), &[0u8; 16]));
        assert!(!matches(
            &Payload::synth(1, 0, 16),
            &Payload::synth(1, 0, 16).materialize()
        ));
    }

    #[test]
    fn churn_expected_overlays_only_the_dirty_region() {
        let base = bytes(1, 2, 8 * CHUNK);
        let d = Dirt {
            round: 3,
            client: 1,
        };
        let all = churn_expected(1, &base, Some(d), 0..8 * CHUNK);
        assert_eq!(&all[..DIRTY_AT as usize], &base[..DIRTY_AT as usize]);
        let r = DIRTY_AT as usize..(DIRTY_AT + SHARED_LEN) as usize;
        assert_eq!(&all[r], &d.shared(1)[..]);
        let tail = (DIRTY_AT + SHARED_LEN + PRIVATE_LEN) as usize;
        assert_eq!(&all[tail..], &base[tail..]);
        let part = churn_expected(1, &base, Some(d), DIRTY_AT - 10..DIRTY_AT + 10);
        assert_eq!(
            &part[..],
            &all[DIRTY_AT as usize - 10..DIRTY_AT as usize + 10]
        );
    }
}
