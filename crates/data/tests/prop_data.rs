//! Property-based tests for the data plane: payload rope algebra, range
//! sets and extent maps are each checked against brute-force reference
//! models over randomly generated operation sequences.

use bff_data::payload::{Payload, SegView};
use bff_data::rangeset::RangeSet;
use bff_data::synth::SynthSource;
use bff_data::{chunk_cover, chunk_range, intersect, ExtentMap};
use proptest::prelude::*;

const UNIVERSE: u64 = 256;

fn arb_range() -> impl Strategy<Value = std::ops::Range<u64>> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| {
        let (s, e) = if a <= b { (a, b) } else { (b, a) };
        s..e
    })
}

proptest! {
    /// RangeSet agrees with a bitset model under arbitrary insert/remove.
    #[test]
    fn rangeset_matches_bitset(ops in prop::collection::vec((arb_range(), any::<bool>()), 0..60),
                               probe in arb_range()) {
        let mut model = vec![false; UNIVERSE as usize];
        let mut set = RangeSet::new();
        for (r, is_insert) in &ops {
            if *is_insert {
                set.insert(r.clone());
                for i in r.clone() { model[i as usize] = true; }
            } else {
                set.remove(r.clone());
                for i in r.clone() { model[i as usize] = false; }
            }
        }
        // Per-position membership.
        for i in 0..UNIVERSE {
            prop_assert_eq!(set.contains(i), model[i as usize], "pos {}", i);
        }
        // contains_range is the conjunction.
        let expect_all = probe.clone().all(|i| model[i as usize]);
        prop_assert_eq!(set.contains_range(&probe), expect_all);
        // covered() counts the model.
        prop_assert_eq!(set.covered(), model.iter().filter(|&&b| b).count() as u64);
        // gaps + runs partition the probe range exactly.
        let mut cursor = probe.start;
        let mut pieces: Vec<(std::ops::Range<u64>, bool)> = Vec::new();
        for r in set.runs_within(&probe) { pieces.push((r, true)); }
        for g in set.gaps_within(&probe) { pieces.push((g, false)); }
        pieces.sort_by_key(|(r, _)| r.start);
        for (r, covered) in pieces {
            prop_assert_eq!(r.start, cursor, "pieces must tile the probe");
            for i in r.clone() {
                prop_assert_eq!(model[i as usize], covered, "pos {}", i);
            }
            cursor = r.end;
        }
        prop_assert_eq!(cursor.max(probe.start), probe.end.max(probe.start));
        // Runs are maximal: no two adjacent/overlapping runs.
        let runs: Vec<_> = set.iter().collect();
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "runs must be disjoint and non-adjacent");
        }
    }

    /// Payload slicing/concatenation agrees with Vec<u8> semantics.
    #[test]
    fn payload_rope_algebra(seed in any::<u64>(),
                            cuts in prop::collection::vec(0..200u64, 0..8),
                            patch_at in 0..150u64,
                            patch_len in 0..50u64) {
        let len = 200u64;
        let base = Payload::synth(seed, 0, len);
        let model = SynthSource::new(seed).materialize(0, len as usize);
        prop_assert_eq!(base.materialize(), model.clone());

        // Slicing at arbitrary cut points and re-concatenating is identity.
        let mut sorted = cuts.clone();
        sorted.push(0); sorted.push(len);
        sorted.sort_unstable(); sorted.dedup();
        let mut rebuilt = Payload::empty();
        for w in sorted.windows(2) {
            rebuilt.append(base.slice(w[0], w[1]));
        }
        prop_assert_eq!(rebuilt.len(), len);
        prop_assert!(rebuilt.content_eq(&base));

        // Overwrite matches model splice.
        let patch_bytes: Vec<u8> = (0..patch_len).map(|i| (i * 7 + 13) as u8).collect();
        let patched = base.overwrite(patch_at, Payload::from(patch_bytes.clone()));
        let mut model2 = model;
        model2.splice(patch_at as usize..(patch_at + patch_len) as usize, patch_bytes);
        prop_assert_eq!(patched.materialize(), model2);
    }

    /// byte_at agrees with materialize for mixed ropes.
    #[test]
    fn payload_byte_at(seed in any::<u64>(), lens in prop::collection::vec(1..20u64, 1..6)) {
        let mut p = Payload::empty();
        for (i, l) in lens.iter().enumerate() {
            match i % 3 {
                0 => p.append(Payload::synth(seed, i as u64 * 100, *l)),
                1 => p.append(Payload::zeros(*l)),
                _ => p.append(Payload::from(vec![i as u8; *l as usize])),
            }
        }
        let m = p.materialize();
        for i in 0..p.len() {
            prop_assert_eq!(p.byte_at(i), m[i as usize]);
        }
        prop_assert_eq!(Payload::from(m.clone()).digest(), p.digest());
    }

    /// ExtentMap<Payload> read() returns exactly the last write at every
    /// position, with gaps where nothing was written.
    #[test]
    fn extent_map_matches_model(writes in prop::collection::vec((arb_range(), any::<u64>()), 0..30),
                                probe in arb_range()) {
        let mut model: Vec<Option<u8>> = vec![None; UNIVERSE as usize];
        let mut map: ExtentMap<Payload> = ExtentMap::new();
        for (r, seed) in &writes {
            if r.start >= r.end { continue; }
            let pl = Payload::synth(*seed, r.start, r.end - r.start);
            let bytes = pl.materialize();
            for (k, i) in (r.start..r.end).enumerate() {
                model[i as usize] = Some(bytes[k]);
            }
            map.insert(r.clone(), pl);
        }
        for piece in map.read(&probe) {
            match piece {
                bff_data::extent::ExtentPiece::Data(r, v) => {
                    prop_assert_eq!(v.len(), r.end - r.start);
                    let bytes = v.materialize();
                    for (k, i) in (r.start..r.end).enumerate() {
                        prop_assert_eq!(model[i as usize], Some(bytes[k]), "pos {}", i);
                    }
                }
                bff_data::extent::ExtentPiece::Gap(r) => {
                    for i in r.clone() {
                        prop_assert_eq!(model[i as usize], None, "pos {}", i);
                    }
                }
            }
        }
    }

    /// Chunk cover really is minimal and covering.
    #[test]
    fn chunk_cover_minimal(s in 0..10_000u64, l in 1..5_000u64, cs_pow in 4..12u32) {
        let cs = 1u64 << cs_pow;
        let image_len = 16_384u64;
        let e = (s + l).min(image_len);
        let s = s.min(e);
        if s == e { return Ok(()); }
        let cover = chunk_cover(&(s..e), cs);
        // Covering: the union of chunk ranges contains the request.
        let lo = chunk_range(cover.start, cs, image_len).start;
        let hi = chunk_range(cover.end - 1, cs, image_len).end;
        prop_assert!(lo <= s && e <= hi);
        // Minimal: first and last chunks intersect the request.
        prop_assert!(intersect(&chunk_range(cover.start, cs, image_len), &(s..e)).end > 0
                     || chunk_range(cover.start, cs, image_len).start == s);
        let first = chunk_range(cover.start, cs, image_len);
        let last = chunk_range(cover.end - 1, cs, image_len);
        prop_assert!(first.start < e && s < first.end, "first chunk must intersect");
        prop_assert!(last.start < e && s < last.end, "last chunk must intersect");
    }
}

/// A rope from `(kind, len, seed)` specs: literal bytes, a synthetic
/// extent, or zero-fill.
fn rope(specs: &[(u8, u64, u64)]) -> Payload {
    specs
        .iter()
        .fold(Payload::empty(), |acc, &(kind, len, seed)| {
            acc.concat(match kind {
                0 => Payload::from(
                    (0..len)
                        .map(|i| (seed.wrapping_add(i * 29) >> 3) as u8)
                        .collect::<Vec<u8>>(),
                ),
                1 => Payload::synth(seed % 4, seed % 1000, len),
                _ => Payload::zeros(len),
            })
        })
}

/// The same bytes as `p` in a different representation: cut at `cuts`,
/// each piece either kept as `p`'s own segments or turned literal.
fn recut(p: &Payload, cuts: &[u64], literal_mask: u64) -> Payload {
    let mut points: Vec<u64> = cuts.iter().map(|c| c % (p.len() + 1)).collect();
    points.extend([0, p.len()]);
    points.sort_unstable();
    points.dedup();
    let mut out = Payload::empty();
    for (i, w) in points.windows(2).enumerate() {
        let piece = p.slice(w[0], w[1]);
        out.append(if literal_mask >> (i % 64) & 1 == 1 {
            Payload::from(piece.materialize())
        } else {
            piece
        });
    }
    out
}

/// The first and last byte of every segment of `p`.
fn segment_edges(p: &Payload) -> Vec<u64> {
    let mut edges = Vec::new();
    let mut at = 0u64;
    for seg in p.segments() {
        let len = match seg {
            SegView::Bytes(b) => b.len() as u64,
            SegView::Synth { len, .. } | SegView::Zero { len } => len,
        };
        edges.extend([at, at + len - 1]);
        at += len;
    }
    edges
}

fn arb_rope_specs() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..3, 1u64..6000, any::<u64>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `content_eq` is exactly byte equality of the materializations,
    /// across ropes that mix literal, synthetic and zero segments cut at
    /// random points, and one flipped byte at any segment edge of either
    /// rope (or at the last byte) makes it false.
    #[test]
    fn content_eq_is_byte_equality(
        specs_a in arb_rope_specs(),
        specs_b in arb_rope_specs(),
        cuts in prop::collection::vec(any::<u64>(), 0..8),
        literal_mask in any::<u64>(),
    ) {
        let a = rope(&specs_a);
        let same = recut(&a, &cuts, literal_mask);
        prop_assert_eq!(same.materialize(), a.materialize());
        prop_assert!(a.content_eq(&same) && same.content_eq(&a));
        prop_assert_eq!(a.digest(), same.digest());

        // An independent rope of the same length: equal iff the bytes are.
        let b = rope(&specs_b);
        let n = a.len().min(b.len());
        let (a_n, b_n) = (a.slice(0, n), recut(&b.slice(0, n), &cuts, !literal_mask));
        let bytes_equal = a_n.materialize() == b_n.materialize();
        prop_assert_eq!(a_n.content_eq(&b_n), bytes_equal);
        prop_assert_eq!(b_n.content_eq(&a_n), bytes_equal);

        let mut edges = segment_edges(&a);
        edges.extend(segment_edges(&same));
        edges.push(a.len() - 1);
        for at in edges {
            let flipped = same.overwrite(at, Payload::from(vec![same.byte_at(at) ^ 0xA5]));
            prop_assert!(!a.content_eq(&flipped), "flip at {} missed", at);
            prop_assert!(!flipped.content_eq(&a), "flip at {} missed", at);
        }
    }
}
