//! The assembled storage service: the client-side handle that binds a
//! deployment's configuration, topology and [`Fabric`] to the server
//! roles behind a message [`Transport`].
//!
//! All server components are passive state machines guarded by mutexes
//! (see [`crate::server::ServerState`]); *clients* execute the protocol
//! logic and charge the fabric for every message and disk access around
//! those state transitions. Locks are never held across fabric calls, so
//! the same `BlobStore` works under real thread concurrency (in-process
//! mode) and under simulated concurrency (coroutine processes).
//!
//! The typed accessor methods here (`vm_*`, `pm_*`, `meta_*`,
//! `provider_*`, `board_*`, `cluster_*`) are the *entire* client→server
//! surface, and each takes one path: build the [`bff_wire::Req`], hand
//! it to `BlobStore::call`, unpack the [`bff_wire::Resp`]. Every request
//! is served by [`ServerState::dispatch`]. Under [`DirectTransport`] the
//! typed value goes straight into it; the codec and socket transports
//! encode it as a frame, carry it, and decode the reply. Server-side
//! locking, journaling and every *modelled* cost (already charged to the
//! fabric by the caller) are therefore the same on all three transports,
//! so logical outcomes are transport-invariant (the
//! `cross_stack_equivalence` suite pins this).

use crate::api::{BlobConfig, BlobId, BlobTopology, ChunkDesc, ChunkId, TransportMode, Version};
use crate::api::{BlobResult, NodeKey, TreeNode};
use crate::board::{BoardService, ConfidentSequence};
use crate::cluster::ClusterIndex;
use crate::context::NodeContext;
use crate::lockstat::LockContention;
use crate::pmanager::Placement;
use crate::provider::ProviderStore;
use crate::server::ServerState;
use bff_data::{ContentKey, FastMap, FastSet, Payload};
use bff_net::transport::{
    CodecTransport, DirectTransport, FrameHandler, FrameServer, RouteKey, RouteTable,
    SocketTransport, Transport, WireStats,
};
use bff_net::{Fabric, NodeId};
use bff_wire::msg::{
    unexpected_resp, BoardReq, BoardResp, ClusterReq, ClusterResp, DeleteOutcome, MetaReq,
    MetaResp, PmReq, PmResp, ProviderReq, ProviderResp, Req, Resp, VersionInfo, VmReq, VmResp,
};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::Arc;

/// A deployed BlobSeer-like service, seen from the client side.
pub struct BlobStore {
    pub(crate) cfg: BlobConfig,
    pub(crate) topo: BlobTopology,
    pub(crate) fabric: Arc<dyn Fabric>,
    /// One [`NodeContext`] per compute node, created lazily: every
    /// client on a node attaches to the same shared cache module (the
    /// paper's per-node FUSE process, §4.1). Contexts are client-side
    /// state — they exist in every deployment mode, including remote.
    contexts: Mutex<FastMap<NodeId, Arc<NodeContext>>>,
    /// Client-side topology knowledge: which nodes are providers
    /// (membership checks must not require a server round trip).
    provider_set: FastSet<NodeId>,
    /// The server half, when it lives in this process (`None` for a
    /// [`BlobStore::remote`] handle talking to external processes).
    srv: Option<Arc<ServerState>>,
    /// How typed requests reach the server roles.
    transport: Arc<dyn Transport>,
    /// In-process socket mode: the listener threads serving `srv`
    /// (dropping the store stops them).
    _listeners: Vec<FrameServer>,
}

impl BlobStore {
    /// Deploy the service with the given configuration and placement.
    /// `cfg.transport` selects how requests reach the server roles (all
    /// three modes host the server state in this process).
    pub fn new(cfg: BlobConfig, topo: BlobTopology, fabric: Arc<dyn Fabric>) -> Arc<Self> {
        Self::with_placement(cfg, topo, fabric, Placement::RoundRobin)
    }

    /// Deploy with an explicit chunk-placement strategy.
    pub fn with_placement(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        placement: Placement,
    ) -> Arc<Self> {
        let srv = Arc::new(ServerState::new(&cfg, &topo, placement));
        Self::attach(cfg, topo, fabric, srv)
    }

    /// Deploy a **durable** service rooted at `data_dir`: disk-backed
    /// providers (one directory per provider node) plus the mutation
    /// journal, both replayed before the handle is returned — the
    /// in-process twin of attaching to `blob_server --data-dir`
    /// processes via [`BlobStore::remote`]. Any transport works: every
    /// request reaches [`ServerState::dispatch`], which journals it.
    pub fn durable(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        placement: Placement,
        data_dir: &std::path::Path,
    ) -> std::io::Result<(Arc<Self>, crate::durable::RecoveryReport)> {
        let (srv, report) = ServerState::recover(&cfg, &topo, placement, data_dir)?;
        Ok((Self::attach(cfg, topo, fabric, Arc::new(srv)), report))
    }

    /// Bind an in-process server state behind the configured transport.
    fn attach(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        srv: Arc<ServerState>,
    ) -> Arc<Self> {
        let (transport, listeners): (Arc<dyn Transport>, Vec<FrameServer>) = match cfg.transport {
            TransportMode::Direct => (Arc::new(DirectTransport), Vec::new()),
            TransportMode::Codec => {
                let state = Arc::clone(&srv);
                let handler: FrameHandler =
                    Arc::new(move |route, frame| state.handle_frame(route, frame));
                (Arc::new(CodecTransport::new(handler)), Vec::new())
            }
            TransportMode::Socket => {
                // One loopback listener per role, all serving the same
                // in-process state — the full framed-TCP path without
                // separate processes. (Multi-process deployments run
                // `blob_server` binaries and connect via
                // [`BlobStore::remote`].)
                let routes = [
                    RouteKey::Vm,
                    RouteKey::Pm,
                    RouteKey::Board,
                    RouteKey::Cluster,
                    RouteKey::Meta(0),
                    RouteKey::Provider(topo.providers[0]),
                ];
                let listeners: Vec<FrameServer> = routes
                    .into_iter()
                    .map(|route| {
                        let state = Arc::clone(&srv);
                        let handler: FrameHandler =
                            Arc::new(move |route, frame| state.handle_frame(route, frame));
                        FrameServer::start(route, handler).expect("bind loopback listener")
                    })
                    .collect();
                let table = RouteTable {
                    vm: listeners[0].addr(),
                    pm: listeners[1].addr(),
                    board: listeners[2].addr(),
                    cluster: listeners[3].addr(),
                    meta: listeners[4].addr(),
                    provider: listeners[5].addr(),
                };
                (Arc::new(SocketTransport::new(table)), listeners)
            }
        };
        Arc::new(Self {
            provider_set: topo.providers.iter().copied().collect(),
            contexts: Mutex::new(FastMap::default()),
            srv: Some(srv),
            transport,
            _listeners: listeners,
            cfg,
            topo,
            fabric,
        })
    }

    /// Attach to a cluster whose server roles run in *other* processes,
    /// reached through `transport` (normally a
    /// [`SocketTransport`] built from the `READY` lines the
    /// `blob_server` processes print). The handle holds no server state;
    /// local-diagnostic accessors ([`BlobStore::providers`],
    /// [`BlobStore::pattern_board`], …) panic on it.
    pub fn remote(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        assert!(
            !transport.is_direct(),
            "a direct transport needs in-process server state; use BlobStore::new"
        );
        Arc::new(Self {
            provider_set: topo.providers.iter().copied().collect(),
            contexts: Mutex::new(FastMap::default()),
            srv: None,
            transport,
            _listeners: Vec::new(),
            cfg,
            topo,
            fabric,
        })
    }

    /// The in-process server state regardless of transport. `None` only
    /// for [`BlobStore::remote`] handles.
    fn local(&self) -> &ServerState {
        self.srv
            .as_deref()
            .expect("server state lives in another process (remote BlobStore handle)")
    }

    /// One request to the server roles, always served by
    /// [`ServerState::dispatch`]: the direct transport hands it the typed
    /// value, every other transport carries the encoded frame.
    fn call(&self, req: Req) -> BlobResult<Resp> {
        if self.transport.is_direct() {
            return Ok(self.local().dispatch(req));
        }
        let frame = bff_wire::encode(&req);
        let reply = self.transport.call(req.route(), &frame)?;
        Ok(bff_wire::decode::<Resp>(&reply)?)
    }

    /// Real serialized bytes the transport has moved (all zeros under
    /// the direct transport — no frame ever exists).
    pub fn wire_stats(&self) -> WireStats {
        self.transport.wire_stats()
    }

    /// Whether `node` hosts a chunk provider in this deployment.
    #[inline]
    pub(crate) fn is_provider(&self, node: NodeId) -> bool {
        self.provider_set.contains(&node)
    }

    /// Number of metadata shards (hash-partition count).
    #[inline]
    pub(crate) fn meta_shards(&self) -> usize {
        self.topo.metadata.len()
    }

    // -----------------------------------------------------------------
    // Version manager.
    // -----------------------------------------------------------------

    pub(crate) fn vm_create_blob(&self, size: u64, chunk_size: u64) -> BlobResult<BlobId> {
        match self.call(Req::Vm(VmReq::CreateBlob { size, chunk_size }))? {
            Resp::Vm(VmResp::Created(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_clone_blob(&self, src: BlobId, version: Version) -> BlobResult<BlobId> {
        match self.call(Req::Vm(VmReq::CloneBlob { src, version }))? {
            Resp::Vm(VmResp::Cloned(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_latest(&self, blob: BlobId) -> BlobResult<Version> {
        match self.call(Req::Vm(VmReq::Latest(blob)))? {
            Resp::Vm(VmResp::Latest(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_size(&self, blob: BlobId) -> BlobResult<u64> {
        match self.call(Req::Vm(VmReq::Size(blob)))? {
            Resp::Vm(VmResp::Size(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_live_snapshots(&self, blob: BlobId) -> BlobResult<Vec<Version>> {
        match self.call(Req::Vm(VmReq::LiveSnapshots(blob)))? {
            Resp::Vm(VmResp::LiveSnapshots(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_version_meta(
        &self,
        blob: BlobId,
        version: Version,
    ) -> BlobResult<VersionInfo> {
        match self.call(Req::Vm(VmReq::VersionMeta(blob, version)))? {
            Resp::Vm(VmResp::VersionMeta(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_publish(
        &self,
        blob: BlobId,
        base: Version,
        root: NodeKey,
    ) -> BlobResult<Version> {
        match self.call(Req::Vm(VmReq::Publish { blob, base, root }))? {
            Resp::Vm(VmResp::Published(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_delete_snapshots(
        &self,
        blob: BlobId,
        versions: &[Version],
    ) -> BlobResult<DeleteOutcome> {
        match self.call(Req::Vm(VmReq::DeleteSnapshots {
            blob,
            versions: versions.to_vec(),
        }))? {
            Resp::Vm(VmResp::Deleted(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_reserve_keys(&self, n: u64) -> BlobResult<Range<u64>> {
        match self.call(Req::Vm(VmReq::ReserveKeys(n)))? {
            Resp::Vm(VmResp::Reserved(r)) => Ok(r),
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Provider manager.
    // -----------------------------------------------------------------

    pub(crate) fn pm_allocate(
        &self,
        n: usize,
        chunk_bytes: u64,
        replication: usize,
        down: Vec<bool>,
    ) -> BlobResult<Vec<ChunkDesc>> {
        match self.call(Req::Pm(PmReq::Allocate {
            n,
            chunk_bytes,
            replication,
            down,
        }))? {
            Resp::Pm(PmResp::Allocated(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Metadata shards. One message = one tree level, whatever shards its
    // keys live on: the server splits it by shard and takes each shard's
    // lock once.
    // -----------------------------------------------------------------

    pub(crate) fn meta_read_nodes(&self, keys: Vec<NodeKey>) -> BlobResult<Vec<TreeNode>> {
        match self.call(Req::Meta(MetaReq::ReadNodes(keys)))? {
            Resp::Meta(MetaResp::Nodes(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn meta_write_nodes(&self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
        match self.call(Req::Meta(MetaReq::WriteNodes(nodes)))? {
            Resp::Meta(MetaResp::Written) => Ok(()),
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Chunk providers. Batched messages hold the provider's shard lock
    // once; per-item messages once per message.
    // -----------------------------------------------------------------

    pub(crate) fn provider_put(
        &self,
        prov: NodeId,
        items: Vec<(ChunkId, Payload)>,
    ) -> BlobResult<bool> {
        match self.call(Req::Provider {
            node: prov,
            req: ProviderReq::Put(items),
        })? {
            Resp::Provider(ProviderResp::Put(ok)) => Ok(ok),
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn provider_fetch(
        &self,
        prov: NodeId,
        ids: Vec<ChunkId>,
    ) -> BlobResult<Vec<Option<(Payload, bool)>>> {
        match self.call(Req::Provider {
            node: prov,
            req: ProviderReq::Fetch(ids),
        })? {
            Resp::Provider(ProviderResp::Fetched(r)) => Ok(r),
            _ => Err(unexpected_resp()),
        }
    }

    /// Inspect a chunk without touching read-cache state. A transport
    /// failure reads as "absent", which the dedup validation path treats
    /// as a stale hit — conservative and safe.
    pub(crate) fn provider_peek(&self, prov: NodeId, id: ChunkId) -> Option<Payload> {
        match self.call(Req::Provider {
            node: prov,
            req: ProviderReq::Peek(id),
        }) {
            Ok(Resp::Provider(ProviderResp::Peeked(r))) => r,
            _ => None,
        }
    }

    /// Bump a chunk's refcount. A transport failure reads as "not
    /// retained" — the commit then pushes fresh bytes instead of
    /// committing by reference, which is always safe.
    pub(crate) fn provider_retain(&self, prov: NodeId, id: ChunkId) -> bool {
        matches!(
            self.call(Req::Provider {
                node: prov,
                req: ProviderReq::Retain(id),
            }),
            Ok(Resp::Provider(ProviderResp::Retained(true)))
        )
    }

    /// Drop one reference (rollback path). A transport failure is a
    /// bounded leak — identical to skipping a down provider.
    pub(crate) fn provider_release(&self, prov: NodeId, id: ChunkId) -> bool {
        matches!(
            self.call(Req::Provider {
                node: prov,
                req: ProviderReq::Release(id),
            }),
            Ok(Resp::Provider(ProviderResp::Released(true)))
        )
    }

    /// Drop `n` references and report `(bytes_freed, removed, dropped)`
    /// (snapshot GC). Transport failure → `(0, false, false)`, the same
    /// bounded-leak semantics as an unreachable provider.
    pub(crate) fn provider_release_counted(
        &self,
        prov: NodeId,
        id: ChunkId,
        n: u64,
    ) -> (u64, bool, bool) {
        match self.call(Req::Provider {
            node: prov,
            req: ProviderReq::ReleaseCounted(id, n),
        }) {
            Ok(Resp::Provider(ProviderResp::ReleaseCounted(r))) => r,
            _ => (0, false, false),
        }
    }

    // -----------------------------------------------------------------
    // Pattern board. All best-effort: a transport failure reads as "the
    // board knows nothing", which only costs prefetch opportunity.
    // -----------------------------------------------------------------

    pub(crate) fn board_novel_of(
        &self,
        key: (BlobId, Version),
        batch: &[u64],
        min_publishers: usize,
    ) -> Vec<u64> {
        match self.call(Req::Board(BoardReq::NovelOf {
            key,
            batch: batch.to_vec(),
            min_publishers,
        })) {
            Ok(Resp::Board(BoardResp::Novel(r))) => r,
            _ => Vec::new(),
        }
    }

    pub(crate) fn board_merge(
        &self,
        key: (BlobId, Version),
        publisher: NodeId,
        batch: &[u64],
    ) -> usize {
        match self.call(Req::Board(BoardReq::Merge {
            key,
            publisher,
            batch: batch.to_vec(),
        })) {
            Ok(Resp::Board(BoardResp::Merged(n))) => n,
            _ => 0,
        }
    }

    pub(crate) fn board_sequence_len(&self, key: (BlobId, Version)) -> usize {
        match self.call(Req::Board(BoardReq::SequenceLen(key))) {
            Ok(Resp::Board(BoardResp::SequenceLen(n))) => n,
            _ => 0,
        }
    }

    /// The merged sequence, shared by refcount with the board when the
    /// transport is direct.
    pub(crate) fn board_sequence(
        &self,
        key: (BlobId, Version),
        min_publishers: usize,
    ) -> Option<ConfidentSequence> {
        match self.call(Req::Board(BoardReq::Sequence {
            key,
            min_publishers,
        })) {
            Ok(Resp::Board(BoardResp::Sequence(r))) => r,
            _ => None,
        }
    }

    /// Snapshot-GC hygiene on the board/cluster host: drop the deleted
    /// versions' patterns and evict freed chunks from the cluster index.
    /// Returns evicted cluster-index entries (0 on transport failure —
    /// stale entries self-heal at their next validated use).
    pub(crate) fn board_purge(
        &self,
        versions: &[(BlobId, Version)],
        freed: &FastSet<ChunkId>,
    ) -> usize {
        let mut freed: Vec<ChunkId> = freed.iter().copied().collect();
        freed.sort_unstable(); // deterministic frame bytes
        match self.call(Req::Board(BoardReq::Purge {
            keys: versions.to_vec(),
            freed,
        })) {
            Ok(Resp::Board(BoardResp::Purged(n))) => n,
            _ => 0,
        }
    }

    // -----------------------------------------------------------------
    // Cluster dedup index. Best-effort like every index update: a
    // transport failure reads as a miss / skipped publish.
    // -----------------------------------------------------------------

    /// Batch probe: one shared-lock acquisition for all keys. Transport
    /// failure → all misses.
    pub(crate) fn cluster_get(&self, keys: &[ContentKey]) -> Vec<Option<ChunkDesc>> {
        match self.call(Req::Cluster(ClusterReq::Get(keys.to_vec()))) {
            Ok(Resp::Cluster(ClusterResp::Got(r))) if r.len() == keys.len() => r,
            _ => vec![None; keys.len()],
        }
    }

    /// Coarse-ablation probe: one *exclusive* acquisition for one key.
    pub(crate) fn cluster_get_exclusive(&self, key: &ContentKey) -> Option<ChunkDesc> {
        match self.call(Req::Cluster(ClusterReq::GetExclusive(*key))) {
            Ok(Resp::Cluster(ClusterResp::GotOne(r))) => r,
            _ => None,
        }
    }

    /// Which keys the index does not yet hold. Transport failure → no
    /// keys are novel (the publish is skipped, content stays node-local).
    pub(crate) fn cluster_novel_of(&self, keys: &[ContentKey]) -> Vec<ContentKey> {
        match self.call(Req::Cluster(ClusterReq::NovelOf(keys.to_vec()))) {
            Ok(Resp::Cluster(ClusterResp::Novel(r))) => r,
            _ => Vec::new(),
        }
    }

    /// Record novel entries: one exclusive acquisition for the batch.
    pub(crate) fn cluster_record(&self, entries: Vec<(ContentKey, ChunkDesc)>) {
        let _ = self.call(Req::Cluster(ClusterReq::Record(entries)));
    }

    /// Drop a stale entry wherever it lives.
    pub(crate) fn cluster_forget(&self, key: &ContentKey) {
        let _ = self.call(Req::Cluster(ClusterReq::Forget(*key)));
    }

    // -----------------------------------------------------------------
    // Client-side shared state and diagnostics.
    // -----------------------------------------------------------------

    /// The shared cache module of `node` (created on first use). All
    /// clients co-located on a node attach to the same context, sharing
    /// its descriptor cache and content-digest index.
    pub fn node_context(&self, node: NodeId) -> Arc<NodeContext> {
        Arc::clone(
            self.contexts
                .lock()
                .entry(node)
                .or_insert_with(|| Arc::new(NodeContext::new(&self.cfg))),
        )
    }

    /// The cluster access-pattern board (diagnostics; the data plane
    /// goes through [`crate::Client`]). Requires in-process server state.
    pub fn pattern_board(&self) -> &BoardService {
        &self.local().pattern_board
    }

    /// The cluster-wide dedup index (diagnostics; the data plane goes
    /// through [`crate::Client::write_chunks`]). Requires in-process
    /// server state.
    pub fn cluster_index(&self) -> &RwLock<ClusterIndex> {
        &self.local().cluster_index
    }

    /// Contention counters of the cluster-index lock.
    pub fn cluster_contention(&self) -> LockContention {
        self.local().cluster_contention()
    }

    /// Cluster-wide eviction after a snapshot delete: drop the deleted
    /// versions' pattern/descriptor state and every cached trace of the
    /// freed chunks from the cluster index and all node contexts. The
    /// caller (the deleting client) charges the gossip that carries
    /// these evictions; the state change itself is the replicas
    /// converging.
    pub(crate) fn purge_deleted(&self, versions: &[(BlobId, Version)], freed: &FastSet<ChunkId>) {
        // Server side (board host): patterns + cluster-index entries.
        self.board_purge(versions, freed);
        // Client side: every local node context drops its cached traces.
        let contexts: Vec<Arc<NodeContext>> = self.contexts.lock().values().cloned().collect();
        for ctx in contexts {
            for &key in versions {
                ctx.purge_version(key);
            }
            if !freed.is_empty() {
                ctx.purge_chunks(freed);
            }
        }
    }

    /// Service configuration.
    pub fn config(&self) -> &BlobConfig {
        &self.cfg
    }

    /// Service placement.
    pub fn topology(&self) -> &BlobTopology {
        &self.topo
    }

    /// The fabric this service charges.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// The deployed provider set (chunk stores, refcounts, loads).
    /// Requires in-process server state.
    pub fn providers(&self) -> &ProviderStore {
        &self.local().providers
    }

    /// Durability counters for this deployment: fsyncs issued, acks
    /// covered, the acks-per-fsync batching ratio, and the worst
    /// group-commit ticket wait. All-zero for non-durable deployments.
    /// Requires in-process server state.
    pub fn durability(&self) -> crate::durable::DurabilityCounters {
        self.local().durability()
    }

    /// Total chunk payload bytes stored across all providers. Shared
    /// chunks are stored once, so this is the paper's storage-space
    /// metric: snapshots that share content do not multiply it.
    /// Lock-free: maintained by the sharded store's atomic counters.
    pub fn total_stored_bytes(&self) -> u64 {
        self.local().providers.total_stored_bytes()
    }

    /// Total chunks stored across all providers (lock-free).
    pub fn total_chunks(&self) -> usize {
        self.local().providers.total_chunks()
    }

    /// Total metadata tree nodes stored.
    pub fn total_metadata_nodes(&self) -> usize {
        self.local()
            .meta
            .iter()
            .map(|m| m.lock().node_count())
            .sum()
    }

    /// Per-provider stored bytes, in `topology().providers` order
    /// (balance diagnostics).
    pub fn provider_loads(&self) -> Vec<u64> {
        self.local().providers.loads()
    }

    /// Drop all simulated page caches (ablations).
    pub fn drop_provider_caches(&self) {
        self.local().providers.drop_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_net::{LocalFabric, NodeId};

    #[test]
    fn deploy_shapes_match_topology() {
        let fabric = LocalFabric::new(6);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(5));
        let store = BlobStore::new(BlobConfig::default(), topo, fabric);
        assert_eq!(store.providers().len(), 4);
        assert_eq!(store.meta_shards(), 4);
        assert_eq!(store.total_stored_bytes(), 0);
        assert_eq!(store.total_metadata_nodes(), 0);
    }

    #[test]
    fn node_contexts_shared_per_node() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let store = BlobStore::new(BlobConfig::default(), topo, fabric);
        let a = store.node_context(NodeId(0));
        let b = store.node_context(NodeId(0));
        let c = store.node_context(NodeId(1));
        assert!(Arc::ptr_eq(&a, &b), "same node → same shared context");
        assert!(!Arc::ptr_eq(&a, &c), "different nodes stay isolated");
    }

    #[test]
    #[should_panic(expected = "provider")]
    fn empty_provider_set_rejected() {
        let fabric = LocalFabric::new(1);
        let topo = BlobTopology {
            vmanager: NodeId(0),
            pmanager: NodeId(0),
            metadata: vec![NodeId(0)],
            providers: vec![],
        };
        BlobStore::new(BlobConfig::default(), topo, fabric);
    }

    #[test]
    fn direct_durable_store_journals_and_recovers() {
        let dir = std::env::temp_dir().join(format!("bff-service-{}-direct", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport: TransportMode::Direct,
            ..Default::default()
        };
        let open = || {
            let fabric: Arc<dyn Fabric> = fabric.clone();
            BlobStore::durable(cfg, topo.clone(), fabric, Placement::RoundRobin, &dir)
                .unwrap()
                .0
        };

        let store = open();
        let client = crate::Client::new(Arc::clone(&store), NodeId(0));
        let image = Payload::synth(7, 0, 64 << 10);
        let (blob, base) = client.upload(image.clone()).unwrap();
        let patch = Payload::synth(8, 0, 4096);
        let snap = client.write(blob, base, 8192, patch.clone()).unwrap();
        let want = image.overwrite(8192, patch).materialize();
        let got = client.read(blob, snap, 0..64 << 10).unwrap().materialize();
        assert!(got == want, "snapshot bytes differ before restart");
        drop(client);
        // Kill: no destructor runs, nothing is flushed on the way out.
        std::mem::forget(store);

        let store = open();
        let client = crate::Client::new(Arc::clone(&store), NodeId(1));
        assert_eq!(client.latest_version(blob).unwrap(), snap);
        let got = client.read(blob, snap, 0..64 << 10).unwrap().materialize();
        assert!(got == want, "snapshot bytes differ after restart");
        drop((client, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_transport_round_trips_requests() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport: crate::api::TransportMode::Codec,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric);
        let blob = store.vm_create_blob(1024, 256).unwrap();
        assert_eq!(store.vm_latest(blob).unwrap(), Version(0));
        let stats = store.wire_stats();
        assert_eq!(stats.calls, 2);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn socket_transport_round_trips_requests() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport: crate::api::TransportMode::Socket,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric);
        let blob = store.vm_create_blob(4096, 512).unwrap();
        assert_eq!(store.vm_size(blob).unwrap(), 4096);
        assert!(store.wire_stats().calls == 2);
    }
}
