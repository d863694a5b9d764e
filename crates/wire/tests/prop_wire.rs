//! Property tests for the wire protocol: `decode(encode(m)) == m` for
//! every message type, and decoding never panics on hostile input —
//! truncated frames, random garbage and bit-flipped valid frames all
//! come back as `WireError`s.
//!
//! The generators pick enum variants uniformly, so across the case
//! budget every variant of every request/response enum (including the
//! nested error types and the interned-string tables) round-trips many
//! times. A deterministic one-of-each sweep rides along so a tag
//! renumbering is caught even at case budget 1.

use bff_data::{ContentDigest, ContentKey, Digest, Payload, Sha256Digest};
use bff_net::{NetError, NodeId};
use bff_wire::codec::{decode, encode, Wire};
use bff_wire::msg::{
    BoardReq, BoardResp, ClusterReq, ClusterResp, DeleteOutcome, MetaReq, MetaResp, PmReq, PmResp,
    ProviderReq, ProviderResp, Req, Resp, VersionInfo, VmReq, VmResp,
};
use bff_wire::types::{
    BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode, Version,
};
use bff_wire::WireError;
use proptest::prelude::*;
use proptest::strategy::TestRng;
use std::sync::Arc;

/// Adapter: any `fn(&mut TestRng) -> T` is a strategy.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// u64 with varied magnitude (varint edge coverage: 1-byte through
/// 10-byte encodings).
fn arb_u64(rng: &mut TestRng) -> u64 {
    rng.bits() >> (rng.below(64) as u32)
}

fn arb_usize(rng: &mut TestRng) -> usize {
    (arb_u64(rng) & 0xFFFF) as usize
}

fn arb_node(rng: &mut TestRng) -> NodeId {
    NodeId(rng.below(1 << 20) as u32)
}

fn arb_vec<T>(rng: &mut TestRng, max: u64, f: fn(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(max)).map(|_| f(rng)).collect()
}

fn arb_digest(rng: &mut TestRng) -> ContentDigest {
    if rng.below(2) == 0 {
        ContentDigest::Weak(Digest(rng.bits()))
    } else {
        let mut d = [0u8; 32];
        for b in &mut d {
            *b = rng.bits() as u8;
        }
        ContentDigest::Strong(Sha256Digest(d))
    }
}

fn arb_content_key(rng: &mut TestRng) -> ContentKey {
    (arb_u64(rng), arb_digest(rng))
}

fn arb_desc(rng: &mut TestRng) -> ChunkDesc {
    ChunkDesc {
        id: ChunkId(arb_u64(rng)),
        replicas: arb_vec(rng, 4, arb_node).into(),
    }
}

fn arb_tree_node(rng: &mut TestRng) -> TreeNode {
    if rng.below(2) == 0 {
        TreeNode::Inner {
            left: NodeKey(arb_u64(rng)),
            right: NodeKey(arb_u64(rng)),
        }
    } else {
        TreeNode::Leaf {
            chunk: arb_desc(rng),
        }
    }
}

/// Ropes mixing literal, synthetic and zero segments (the three
/// structural encodings), content-bounded so equality stays cheap.
fn arb_payload(rng: &mut TestRng) -> Payload {
    let mut p = Payload::empty();
    for _ in 0..rng.below(4) {
        match rng.below(3) {
            0 => {
                let bytes: Vec<u8> = (0..rng.below(48)).map(|_| rng.bits() as u8).collect();
                p.append(Payload::from(bytes));
            }
            1 => p.append(Payload::synth(rng.bits(), arb_u64(rng), rng.below(1 << 16))),
            _ => p.append(Payload::zeros(rng.below(1 << 16))),
        }
    }
    p
}

/// Interned `&'static str`s a `BlobError::BadInput` may carry (a subset
/// of the crate's table — round-trip is the identity for all of them).
const BAD_INPUTS: &[&str] = &[
    "empty write",
    "empty update set",
    "no providers registered",
    "cannot delete Version(0)",
];

/// Interned tag-context strings (subset of the crate's table).
const TAG_CONTEXTS: &[&str] = &["bool", "option", "tree node", "request"];

fn arb_wire_error(rng: &mut TestRng) -> WireError {
    match rng.below(5) {
        0 => WireError::Truncated,
        1 => WireError::BadTag(
            TAG_CONTEXTS[rng.below(TAG_CONTEXTS.len() as u64) as usize],
            rng.bits() as u8,
        ),
        2 => WireError::BadFrame,
        3 => WireError::Closed,
        _ => WireError::Io(
            [
                std::io::ErrorKind::Other,
                std::io::ErrorKind::UnexpectedEof,
                std::io::ErrorKind::BrokenPipe,
                std::io::ErrorKind::TimedOut,
            ][rng.below(4) as usize],
        ),
    }
}

fn arb_blob_error(rng: &mut TestRng) -> BlobError {
    match rng.below(8) {
        0 => BlobError::NoSuchBlob(BlobId(arb_u64(rng))),
        1 => BlobError::NoSuchVersion(BlobId(arb_u64(rng)), Version(arb_u64(rng))),
        2 => BlobError::Conflict {
            blob: BlobId(arb_u64(rng)),
            base: Version(arb_u64(rng)),
            latest: Version(arb_u64(rng)),
        },
        3 => BlobError::OutOfBounds {
            offset: arb_u64(rng),
            len: arb_u64(rng),
            size: arb_u64(rng),
        },
        4 => BlobError::ChunkUnavailable(ChunkId(arb_u64(rng))),
        5 => BlobError::MetadataMissing(NodeKey(arb_u64(rng))),
        6 => BlobError::Net(match rng.below(3) {
            0 => NetError::NodeDown(arb_node(rng)),
            1 => NetError::Cancelled,
            _ => NetError::Wire(arb_wire_error(rng)),
        }),
        _ => BlobError::BadInput(BAD_INPUTS[rng.below(BAD_INPUTS.len() as u64) as usize]),
    }
}

fn arb_result<T>(rng: &mut TestRng, ok: fn(&mut TestRng) -> T) -> BlobResult<T> {
    if rng.below(4) == 0 {
        Err(arb_blob_error(rng))
    } else {
        Ok(ok(rng))
    }
}

fn arb_board_key(rng: &mut TestRng) -> (BlobId, Version) {
    (BlobId(arb_u64(rng)), Version(arb_u64(rng)))
}

fn arb_vm_req(rng: &mut TestRng) -> VmReq {
    match rng.below(9) {
        0 => VmReq::CreateBlob {
            size: arb_u64(rng),
            chunk_size: arb_u64(rng),
        },
        1 => VmReq::CloneBlob {
            src: BlobId(arb_u64(rng)),
            version: Version(arb_u64(rng)),
        },
        2 => VmReq::Latest(BlobId(arb_u64(rng))),
        3 => VmReq::Size(BlobId(arb_u64(rng))),
        4 => VmReq::LiveSnapshots(BlobId(arb_u64(rng))),
        5 => VmReq::VersionMeta(BlobId(arb_u64(rng)), Version(arb_u64(rng))),
        6 => VmReq::Publish {
            blob: BlobId(arb_u64(rng)),
            base: Version(arb_u64(rng)),
            root: NodeKey(arb_u64(rng)),
        },
        7 => VmReq::DeleteSnapshots {
            blob: BlobId(arb_u64(rng)),
            versions: arb_vec(rng, 6, |r| Version(arb_u64(r))),
        },
        _ => VmReq::ReserveKeys(arb_u64(rng)),
    }
}

fn arb_vm_resp(rng: &mut TestRng) -> VmResp {
    match rng.below(9) {
        0 => VmResp::Created(arb_result(rng, |r| BlobId(arb_u64(r)))),
        1 => VmResp::Cloned(arb_result(rng, |r| BlobId(arb_u64(r)))),
        2 => VmResp::Latest(arb_result(rng, |r| Version(arb_u64(r)))),
        3 => VmResp::Size(arb_result(rng, arb_u64)),
        4 => VmResp::LiveSnapshots(arb_result(rng, |r| arb_vec(r, 6, |q| Version(arb_u64(q))))),
        5 => VmResp::VersionMeta(arb_result(rng, |r| VersionInfo {
            root: NodeKey(arb_u64(r)),
            size: arb_u64(r),
            chunk_size: arb_u64(r),
            span: arb_u64(r),
        })),
        6 => VmResp::Published(arb_result(rng, |r| Version(arb_u64(r)))),
        7 => VmResp::Deleted(arb_result(rng, |r| DeleteOutcome {
            dead_roots: arb_vec(r, 6, |q| NodeKey(arb_u64(q))),
            live_roots: arb_vec(r, 6, |q| NodeKey(arb_u64(q))),
        })),
        _ => {
            let start = arb_u64(rng);
            VmResp::Reserved(start..start.saturating_add(rng.below(1 << 10)))
        }
    }
}

fn arb_pm_req(rng: &mut TestRng) -> PmReq {
    PmReq::Allocate {
        n: arb_usize(rng),
        chunk_bytes: arb_u64(rng),
        replication: arb_usize(rng),
        down: arb_vec(rng, 8, |r| r.below(2) == 0),
    }
}

fn arb_pm_resp(rng: &mut TestRng) -> PmResp {
    PmResp::Allocated(arb_result(rng, |r| arb_vec(r, 6, arb_desc)))
}

fn arb_meta_req(rng: &mut TestRng) -> MetaReq {
    if rng.below(2) == 0 {
        MetaReq::ReadNodes(arb_vec(rng, 32, |r| NodeKey(arb_u64(r))))
    } else {
        MetaReq::WriteNodes(arb_vec(rng, 32, |r| {
            (NodeKey(arb_u64(r)), arb_tree_node(r))
        }))
    }
}

fn arb_meta_resp(rng: &mut TestRng) -> MetaResp {
    if rng.below(2) == 0 {
        MetaResp::Nodes(arb_result(rng, |r| arb_vec(r, 8, arb_tree_node)))
    } else {
        MetaResp::Written
    }
}

fn arb_provider_req(rng: &mut TestRng) -> ProviderReq {
    match rng.below(6) {
        0 => ProviderReq::Put(arb_vec(rng, 4, |r| (ChunkId(arb_u64(r)), arb_payload(r)))),
        1 => ProviderReq::Fetch(arb_vec(rng, 8, |r| ChunkId(arb_u64(r)))),
        2 => ProviderReq::Peek(ChunkId(arb_u64(rng))),
        3 => ProviderReq::Retain(ChunkId(arb_u64(rng))),
        4 => ProviderReq::Release(ChunkId(arb_u64(rng))),
        _ => ProviderReq::ReleaseCounted(ChunkId(arb_u64(rng)), arb_u64(rng)),
    }
}

fn arb_provider_resp(rng: &mut TestRng) -> ProviderResp {
    match rng.below(6) {
        0 => ProviderResp::Put(rng.below(2) == 0),
        1 => ProviderResp::Fetched(arb_vec(rng, 4, |r| {
            if r.below(3) == 0 {
                None
            } else {
                Some((arb_payload(r), r.below(2) == 0))
            }
        })),
        2 => ProviderResp::Peeked(if rng.below(3) == 0 {
            None
        } else {
            Some(arb_payload(rng))
        }),
        3 => ProviderResp::Retained(rng.below(2) == 0),
        4 => ProviderResp::Released(rng.below(2) == 0),
        _ => ProviderResp::ReleaseCounted((arb_u64(rng), rng.below(2) == 0, rng.below(2) == 0)),
    }
}

fn arb_board_req(rng: &mut TestRng) -> BoardReq {
    match rng.below(5) {
        0 => BoardReq::NovelOf {
            key: arb_board_key(rng),
            batch: arb_vec(rng, 8, arb_u64),
            min_publishers: arb_usize(rng),
        },
        1 => BoardReq::Merge {
            key: arb_board_key(rng),
            publisher: arb_node(rng),
            batch: arb_vec(rng, 8, arb_u64),
        },
        2 => BoardReq::SequenceLen(arb_board_key(rng)),
        3 => BoardReq::Sequence {
            key: arb_board_key(rng),
            min_publishers: arb_usize(rng),
        },
        _ => BoardReq::Purge {
            keys: arb_vec(rng, 6, arb_board_key),
            freed: arb_vec(rng, 6, |r| ChunkId(arb_u64(r))),
        },
    }
}

fn arb_board_resp(rng: &mut TestRng) -> BoardResp {
    match rng.below(5) {
        0 => BoardResp::Novel(arb_vec(rng, 8, arb_u64)),
        1 => BoardResp::Merged(arb_usize(rng)),
        2 => BoardResp::SequenceLen(arb_usize(rng)),
        3 => BoardResp::Sequence(if rng.below(3) == 0 {
            None
        } else {
            let seq = arb_vec(rng, 8, arb_u64);
            let conf = if rng.below(2) == 0 {
                None
            } else {
                let n = seq.len();
                Some((0..n).map(|_| rng.below(2) == 0).collect())
            };
            Some((Arc::new(seq), conf))
        }),
        _ => BoardResp::Purged(arb_usize(rng)),
    }
}

fn arb_cluster_req(rng: &mut TestRng) -> ClusterReq {
    match rng.below(5) {
        0 => ClusterReq::Get(arb_vec(rng, 6, arb_content_key)),
        1 => ClusterReq::GetExclusive(arb_content_key(rng)),
        2 => ClusterReq::NovelOf(arb_vec(rng, 6, arb_content_key)),
        3 => ClusterReq::Record(arb_vec(rng, 6, |r| (arb_content_key(r), arb_desc(r)))),
        _ => ClusterReq::Forget(arb_content_key(rng)),
    }
}

fn arb_cluster_resp(rng: &mut TestRng) -> ClusterResp {
    match rng.below(5) {
        0 => ClusterResp::Got(arb_vec(rng, 6, |r| {
            if r.below(3) == 0 {
                None
            } else {
                Some(arb_desc(r))
            }
        })),
        1 => ClusterResp::GotOne(if rng.below(3) == 0 {
            None
        } else {
            Some(arb_desc(rng))
        }),
        2 => ClusterResp::Novel(arb_vec(rng, 6, arb_content_key)),
        3 => ClusterResp::Recorded,
        _ => ClusterResp::Forgotten,
    }
}

fn arb_req(rng: &mut TestRng) -> Req {
    match rng.below(6) {
        0 => Req::Vm(arb_vm_req(rng)),
        1 => Req::Pm(arb_pm_req(rng)),
        2 => Req::Meta(arb_meta_req(rng)),
        3 => Req::Provider {
            node: arb_node(rng),
            req: arb_provider_req(rng),
        },
        4 => Req::Board(arb_board_req(rng)),
        _ => Req::Cluster(arb_cluster_req(rng)),
    }
}

fn arb_resp(rng: &mut TestRng) -> Resp {
    match rng.below(6) {
        0 => Resp::Vm(arb_vm_resp(rng)),
        1 => Resp::Pm(arb_pm_resp(rng)),
        2 => Resp::Meta(arb_meta_resp(rng)),
        3 => Resp::Provider(arb_provider_resp(rng)),
        4 => Resp::Board(arb_board_resp(rng)),
        _ => Resp::Cluster(arb_cluster_resp(rng)),
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let frame = encode(v);
    match decode::<T>(&frame) {
        Ok(back) => assert_eq!(&back, v, "decode(encode(m)) != m"),
        Err(e) => panic!("decode(encode({v:?})) failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// encode→decode is the identity for requests (all roles, all
    /// variants, including payload-bearing provider puts).
    #[test]
    fn requests_roundtrip(req in Gen(arb_req)) {
        roundtrip(&req);
    }

    /// encode→decode is the identity for responses, including every
    /// error variant a `BlobResult` can carry.
    #[test]
    fn responses_roundtrip(resp in Gen(arb_resp)) {
        roundtrip(&resp);
    }

    /// Wire-visible vocabulary types round-trip on their own.
    #[test]
    fn vocabulary_roundtrips(desc in Gen(arb_desc),
                             node in Gen(arb_tree_node),
                             key in Gen(arb_content_key),
                             payload in Gen(arb_payload),
                             err in Gen(arb_blob_error)) {
        roundtrip(&desc);
        roundtrip(&node);
        roundtrip(&key);
        roundtrip(&err);
        // Payload equality is content equality; structure may coalesce.
        let back = decode::<Payload>(&encode(&payload)).unwrap();
        prop_assert!(back.content_eq(&payload));
        prop_assert_eq!(back.len(), payload.len());
    }

    /// A shared (`Arc`) sequence encodes exactly like the plain vector
    /// it wraps and decodes back to equal contents.
    #[test]
    fn shared_sequence_encodes_as_plain_vec(seq in Gen(|r| arb_vec(r, 16, arb_u64))) {
        let shared = Arc::new(seq.clone());
        prop_assert_eq!(encode(&shared), encode(&seq));
        roundtrip(&shared);
    }

    /// Any strict prefix of a valid frame decodes to a `WireError`
    /// (never panics, never half-succeeds): the codec demands exact
    /// consumption, so truncation is always detected.
    #[test]
    fn truncated_frames_are_errors(req in Gen(arb_req), cut in Gen(arb_u64)) {
        let frame = encode(&req);
        let cut = (cut % frame.len() as u64) as usize;
        prop_assert!(decode::<Req>(&frame[..cut]).is_err());
    }

    /// Random garbage never panics the decoder — every outcome is a
    /// clean `Result`.
    #[test]
    fn garbage_frames_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode::<Req>(&bytes);
        let _ = decode::<Resp>(&bytes);
        let _ = decode::<BlobError>(&bytes);
        let _ = decode::<Payload>(&bytes);
    }

    /// A single flipped byte in a valid frame either still decodes (the
    /// flip hit a don't-care bit of a varint) or errors — never panics.
    #[test]
    fn bitflipped_frames_never_panic(req in Gen(arb_req), pos in Gen(arb_u64), bit in 0u64..8) {
        let mut frame = encode(&req);
        let pos = (pos % frame.len() as u64) as usize;
        frame[pos] ^= 1 << bit;
        let _ = decode::<Req>(&frame);
    }
}

/// One literal value per enum variant, so a wire-tag renumbering fails
/// deterministically even with the case budget at 1.
#[test]
fn every_variant_roundtrips_once() {
    let desc = ChunkDesc {
        id: ChunkId(7),
        replicas: vec![NodeId(1), NodeId(2)].into(),
    };
    let key: ContentKey = (9, ContentDigest::Weak(Digest(0xABCD)));
    let reqs: Vec<Req> = vec![
        Req::Vm(VmReq::CreateBlob {
            size: 1,
            chunk_size: 2,
        }),
        Req::Vm(VmReq::CloneBlob {
            src: BlobId(1),
            version: Version(2),
        }),
        Req::Vm(VmReq::Latest(BlobId(3))),
        Req::Vm(VmReq::Size(BlobId(4))),
        Req::Vm(VmReq::LiveSnapshots(BlobId(5))),
        Req::Vm(VmReq::VersionMeta(BlobId(6), Version(1))),
        Req::Vm(VmReq::Publish {
            blob: BlobId(7),
            base: Version(0),
            root: NodeKey(3),
        }),
        Req::Vm(VmReq::DeleteSnapshots {
            blob: BlobId(8),
            versions: vec![Version(1)],
        }),
        Req::Vm(VmReq::ReserveKeys(16)),
        Req::Pm(PmReq::Allocate {
            n: 3,
            chunk_bytes: 64,
            replication: 2,
            down: vec![false, true],
        }),
        Req::Meta(MetaReq::ReadNodes(vec![NodeKey(1), NodeKey(7)])),
        Req::Meta(MetaReq::WriteNodes(vec![
            (
                NodeKey(2),
                TreeNode::Inner {
                    left: NodeKey(3),
                    right: NodeKey::NULL,
                },
            ),
            (
                NodeKey(3),
                TreeNode::Leaf {
                    chunk: desc.clone(),
                },
            ),
        ])),
        Req::Provider {
            node: NodeId(1),
            req: ProviderReq::Put(vec![(ChunkId(1), Payload::synth(1, 0, 100))]),
        },
        Req::Provider {
            node: NodeId(2),
            req: ProviderReq::Fetch(vec![ChunkId(2)]),
        },
        Req::Provider {
            node: NodeId(3),
            req: ProviderReq::Peek(ChunkId(3)),
        },
        Req::Provider {
            node: NodeId(4),
            req: ProviderReq::Retain(ChunkId(4)),
        },
        Req::Provider {
            node: NodeId(5),
            req: ProviderReq::Release(ChunkId(5)),
        },
        Req::Provider {
            node: NodeId(6),
            req: ProviderReq::ReleaseCounted(ChunkId(6), 2),
        },
        Req::Board(BoardReq::NovelOf {
            key: (BlobId(1), Version(1)),
            batch: vec![1, 2],
            min_publishers: 2,
        }),
        Req::Board(BoardReq::Merge {
            key: (BlobId(2), Version(2)),
            publisher: NodeId(3),
            batch: vec![3],
        }),
        Req::Board(BoardReq::SequenceLen((BlobId(3), Version(3)))),
        Req::Board(BoardReq::Sequence {
            key: (BlobId(4), Version(4)),
            min_publishers: 1,
        }),
        Req::Board(BoardReq::Purge {
            keys: vec![(BlobId(5), Version(5))],
            freed: vec![ChunkId(9)],
        }),
        Req::Cluster(ClusterReq::Get(vec![key])),
        Req::Cluster(ClusterReq::GetExclusive(key)),
        Req::Cluster(ClusterReq::NovelOf(vec![key])),
        Req::Cluster(ClusterReq::Record(vec![(key, desc.clone())])),
        Req::Cluster(ClusterReq::Forget(key)),
    ];
    for req in &reqs {
        roundtrip(req);
    }

    let info = VersionInfo {
        root: NodeKey(1),
        size: 2,
        chunk_size: 3,
        span: 4,
    };
    let outcome = DeleteOutcome {
        dead_roots: vec![NodeKey(1)],
        live_roots: vec![NodeKey(2)],
    };
    let resps: Vec<Resp> = vec![
        Resp::Vm(VmResp::Created(Ok(BlobId(1)))),
        Resp::Vm(VmResp::Cloned(Err(BlobError::NoSuchBlob(BlobId(2))))),
        Resp::Vm(VmResp::Latest(Ok(Version(3)))),
        Resp::Vm(VmResp::Size(Ok(64))),
        Resp::Vm(VmResp::LiveSnapshots(Ok(vec![Version(1), Version(2)]))),
        Resp::Vm(VmResp::VersionMeta(Ok(info))),
        Resp::Vm(VmResp::Published(Err(BlobError::Conflict {
            blob: BlobId(1),
            base: Version(1),
            latest: Version(2),
        }))),
        Resp::Vm(VmResp::Deleted(Ok(outcome))),
        Resp::Vm(VmResp::Reserved(10..20)),
        Resp::Pm(PmResp::Allocated(Ok(vec![desc.clone()]))),
        Resp::Meta(MetaResp::Nodes(Ok(vec![TreeNode::Leaf {
            chunk: desc.clone(),
        }]))),
        Resp::Meta(MetaResp::Written),
        Resp::Provider(ProviderResp::Put(true)),
        Resp::Provider(ProviderResp::Fetched(vec![
            Some((Payload::zeros(10), true)),
            None,
        ])),
        Resp::Provider(ProviderResp::Peeked(Some(Payload::synth(2, 1, 50)))),
        Resp::Provider(ProviderResp::Retained(false)),
        Resp::Provider(ProviderResp::Released(true)),
        Resp::Provider(ProviderResp::ReleaseCounted((100, true, false))),
        Resp::Board(BoardResp::Novel(vec![1])),
        Resp::Board(BoardResp::Merged(2)),
        Resp::Board(BoardResp::SequenceLen(3)),
        Resp::Board(BoardResp::Sequence(Some((
            Arc::new(vec![1, 2]),
            Some(vec![true, false]),
        )))),
        Resp::Board(BoardResp::Purged(4)),
        Resp::Cluster(ClusterResp::Got(vec![Some(desc.clone()), None])),
        Resp::Cluster(ClusterResp::GotOne(None)),
        Resp::Cluster(ClusterResp::Novel(vec![key])),
        Resp::Cluster(ClusterResp::Recorded),
        Resp::Cluster(ClusterResp::Forgotten),
    ];
    for resp in &resps {
        roundtrip(resp);
    }
}

/// The board sequence reply's frame bytes, pinned: sharing the sequence
/// by `Arc` must not change what crosses the wire.
#[test]
fn board_sequence_frame_bytes_are_stable() {
    let resp = Resp::Board(BoardResp::Sequence(Some((
        Arc::new(vec![1, 300]),
        Some(vec![true, false]),
    ))));
    // Board, Sequence, Some, len 2, 1, 300 (LEB128), Some, len 2, flags.
    let golden = [4, 3, 1, 2, 1, 0xAC, 0x02, 1, 2, 1, 0];
    assert_eq!(encode(&resp), golden);
    roundtrip(&resp);
}
