//! Server-side dispatch: the passive state machines behind the typed
//! message boundary.
//!
//! A [`ServerState`] owns everything that lives on the *server* side of
//! the protocol — version manager, provider manager, metadata shards,
//! chunk providers, the pattern board and the cluster dedup index — and
//! answers [`bff_wire::Req`] values with [`bff_wire::Resp`] values.
//! Every request maps to exactly the lock-acquisition pattern the direct
//! in-process path uses: a batch request takes its state machine's lock
//! once for the whole batch, a per-item request once per message. That
//! keeps the `coarse_*` contention ablations meaningful regardless of
//! which transport carried the frame.
//!
//! [`ServerState::handle_frame`] is the `bff_net::FrameHandler` entry
//! point: decode → dispatch → encode, never panicking on input. Both the
//! in-process transports and the standalone `blob_server` processes (see
//! the `bff-bench` crate) serve frames through it.

use crate::api::{BlobConfig, BlobTopology};
use crate::board::BoardService;
use crate::cluster::ClusterIndex;
use crate::durable::{
    CommitPolicy, DurabilityCounters, DurabilityStats, GroupCommit, Journal, JournalRecord,
    RecoveryReport,
};
use crate::lockstat::{probed_read, probed_write, LockContention, LockProbe};
use crate::meta::{partition_of, MetaPartition};
use crate::pmanager::{PManager, Placement};
use crate::provider::ProviderStore;
use crate::vmanager::VManager;
use bff_data::FastSet;
use bff_net::transport::{RouteKey, WireError};
use bff_wire::msg::{
    BoardReq, BoardResp, ClusterReq, ClusterResp, DeleteOutcome, MetaReq, MetaResp, PmReq, PmResp,
    ProviderReq, ProviderResp, Req, Resp, VersionInfo, VmReq, VmResp,
};
use bff_wire::types::{BlobError, BlobResult, NodeKey, TreeNode};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The manager journal plus its commit-ack discipline: appends happen
/// under the state-machine lock (journal order = serialization order),
/// the fsync barrier is crossed *after* that lock is released, so
/// concurrent mutations interleave appends and — under group commit —
/// share one `sync_data`.
struct JournalHandle {
    journal: Mutex<Journal>,
    /// Leader/follower fsync batching; `None` runs the per-ack
    /// baseline (one fsync per barrier, under the journal lock only).
    gc: Option<Arc<GroupCommit>>,
    stats: Arc<DurabilityStats>,
}

impl JournalHandle {
    /// Issue the sync ticket for a record just appended (call while
    /// still holding the state-machine lock that ordered the append).
    fn ticket(&self) -> u64 {
        self.gc.as_ref().map_or(0, |gc| gc.ticket())
    }

    /// Cross the fsync-before-ack barrier for `ticket`. Call with no
    /// state-machine lock held.
    fn commit(&self, ticket: u64) {
        match &self.gc {
            Some(gc) => gc
                .commit(ticket, || {
                    // Claim under the journal lock, sync_data outside it.
                    let handle = self.journal.lock().sync_handle()?;
                    if let Some(f) = handle {
                        f.sync_data()?;
                    }
                    Ok(())
                })
                .expect("journal group sync"),
            None => {
                let started = Instant::now();
                if self.journal.lock().sync().expect("journal sync") {
                    self.stats.note_fsync();
                    self.stats.note_ack(started.elapsed());
                }
            }
        }
    }
}

/// The server half of a deployment: every passive state machine, guarded
/// exactly as in the historical in-process layout.
pub struct ServerState {
    pub(crate) vmanager: Mutex<VManager>,
    pub(crate) pmanager: Mutex<PManager>,
    pub(crate) meta: Vec<Mutex<MetaPartition>>,
    /// Sharded one lock per provider: data-plane requests on distinct
    /// providers never contend (see [`ProviderStore`]).
    pub(crate) providers: ProviderStore,
    /// The cluster access-pattern board (see [`crate::board`]). The
    /// service does its own sharded read/write locking.
    pub(crate) pattern_board: BoardService,
    /// The cluster-wide content-addressed dedup index. Read-mostly after
    /// deployment convergence, so a read/write lock; hot-path
    /// acquisitions go through [`ServerState::cluster_read`] /
    /// [`ServerState::cluster_write`] and are contention-counted.
    pub(crate) cluster_index: RwLock<ClusterIndex>,
    cluster_probe: LockProbe,
    /// The mutation journal, present only on durable deployments (see
    /// [`ServerState::recover`]). A leaf lock: always acquired *while
    /// holding* the state-machine lock whose mutation is being
    /// journaled, so journal order equals serialization order. The sync
    /// barrier, by contrast, is crossed after that lock drops.
    journal: Option<JournalHandle>,
    /// Deployment-wide durability counters (journal + provider
    /// coordinators share one instance; all-zero when volatile).
    durability: Arc<DurabilityStats>,
}

impl ServerState {
    /// Build the server state for a deployment (in-memory, the
    /// historical default).
    pub fn new(cfg: &BlobConfig, topo: &BlobTopology, placement: Placement) -> Self {
        Self::assemble(
            cfg,
            topo,
            placement,
            ProviderStore::new(&topo.providers),
            None,
            Arc::new(DurabilityStats::default()),
        )
    }

    fn assemble(
        cfg: &BlobConfig,
        topo: &BlobTopology,
        placement: Placement,
        providers: ProviderStore,
        journal: Option<JournalHandle>,
        durability: Arc<DurabilityStats>,
    ) -> Self {
        assert!(!topo.providers.is_empty(), "need at least one provider");
        assert!(
            !topo.metadata.is_empty(),
            "need at least one metadata server"
        );
        let cluster_cap = if cfg.cluster_dedup && cfg.dedup {
            cfg.cluster_index_chunks
        } else {
            0
        };
        Self {
            vmanager: Mutex::new(VManager::new()),
            pmanager: Mutex::new(PManager::new(topo.providers.clone(), placement)),
            meta: topo
                .metadata
                .iter()
                .map(|_| Mutex::new(MetaPartition::new()))
                .collect(),
            providers,
            pattern_board: BoardService::new(cfg.coarse_board_lock),
            cluster_index: RwLock::new(ClusterIndex::new(cluster_cap)),
            cluster_probe: LockProbe::default(),
            journal,
            durability,
        }
    }

    /// Build a durable server state rooted at `data_dir`: disk-backed
    /// providers (one directory per provider node) plus the mutation
    /// journal, both replayed before the state is handed out.
    ///
    /// Soft state — the pattern board and the cluster dedup index — is
    /// deliberately *not* journaled: both are self-healing caches
    /// (stale entries are re-learned or verified against providers),
    /// and an empty board after restart only costs warmup, never
    /// correctness. Each process must own `data_dir` exclusively; two
    /// writers would corrupt each other's live appends.
    pub fn recover(
        cfg: &BlobConfig,
        topo: &BlobTopology,
        placement: Placement,
        data_dir: &Path,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let policy = CommitPolicy::from_config(cfg);
        let (providers, seg) = ProviderStore::recover(&topo.providers, data_dir, &policy)?;
        let (records, journal, journal_torn) = Journal::open(&data_dir.join("journal.log"))?;
        let handle = JournalHandle {
            journal: Mutex::new(journal),
            gc: policy.coordinator(),
            stats: Arc::clone(&policy.stats),
        };
        let state = Self::assemble(cfg, topo, placement, providers, Some(handle), policy.stats);
        let report = RecoveryReport {
            journal_records: records.len(),
            journal_torn,
            chunks: seg.chunks,
            chunk_bytes: seg.chunk_bytes,
            torn_files: seg.torn_files,
        };
        let mut vm = state.vmanager.lock();
        let mut pm = state.pmanager.lock();
        for rec in records {
            match rec {
                // Replay applies the op directly: it was journaled only
                // after succeeding, so errors here mean the record is
                // obsolete (e.g. delete of an already-deleted version
                // whose first delete was also replayed) — never fatal.
                JournalRecord::VmOp(op) => match op {
                    VmReq::CreateBlob { size, chunk_size } => {
                        let _ = vm.create_blob(size, chunk_size);
                    }
                    VmReq::CloneBlob { src, version } => {
                        let _ = vm.clone_blob(src, version);
                    }
                    VmReq::Publish { blob, base, root } => {
                        let _ = vm.publish(blob, base, root);
                    }
                    VmReq::DeleteSnapshots { blob, versions } => {
                        let _ = vm.delete_snapshots(blob, &versions);
                    }
                    _ => {}
                },
                JournalRecord::MetaNodes { shard, nodes } => {
                    if let Some(part) = state.meta.get(shard as usize) {
                        part.lock().put(nodes);
                    }
                }
                JournalRecord::KeyMark(k) => vm.ensure_key_floor(k),
                JournalRecord::ChunkMark(c) => pm.ensure_chunk_floor(c),
            }
        }
        drop(vm);
        drop(pm);
        Ok((state, report))
    }

    /// Journal a successful version-manager mutation. Call sites hold
    /// the vmanager lock, so append order equals serialization order.
    /// Fail-stop: an unjournalable mutation must not be acked. Returns
    /// the sync ticket to pass to [`ServerState::journal_commit`]
    /// *after* the vmanager lock is released — the ack is not durable
    /// until that barrier is crossed.
    fn journal_append_vm(&self, op: &VmReq) -> Option<u64> {
        let j = self.journal.as_ref()?;
        j.journal.lock().append_vm(op).expect("journal vm append");
        Some(j.ticket())
    }

    /// Cross the fsync-before-ack barrier for an appended journal
    /// record. Call with no state-machine lock held; `None` (volatile
    /// deployment, or nothing appended) is a no-op.
    fn journal_commit(&self, ticket: Option<u64>) {
        if let (Some(j), Some(ticket)) = (self.journal.as_ref(), ticket) {
            j.commit(ticket);
        }
    }

    /// Advance the durable node-key allocator mark (call under the
    /// vmanager lock); `Some` carries the barrier ticket when a new
    /// mark was appended.
    fn journal_note_key(&self, next: u64) -> Option<u64> {
        let j = self.journal.as_ref()?;
        let appended = j.journal.lock().note_key(next).expect("journal key mark");
        appended.then(|| j.ticket())
    }

    /// [`ServerState::journal_note_key`] for the chunk-id allocator
    /// (call under the pmanager lock).
    fn journal_note_chunk(&self, next: u64) -> Option<u64> {
        let j = self.journal.as_ref()?;
        let appended = j
            .journal
            .lock()
            .note_chunk(next)
            .expect("journal chunk mark");
        appended.then(|| j.ticket())
    }

    /// Point-in-time durability counters (fsync barriers, acks covered,
    /// worst ticket wait) across the journal and every provider shard.
    pub fn durability(&self) -> DurabilityCounters {
        self.durability.snapshot()
    }

    /// Shared read access to the cluster dedup index, contention-counted
    /// (the commit-probe hot path).
    pub(crate) fn cluster_read(&self) -> RwLockReadGuard<'_, ClusterIndex> {
        probed_read(&self.cluster_probe, &self.cluster_index)
    }

    /// Exclusive access to the cluster dedup index, contention-counted.
    pub(crate) fn cluster_write(&self) -> RwLockWriteGuard<'_, ClusterIndex> {
        probed_write(&self.cluster_probe, &self.cluster_index)
    }

    /// Contention counters of the cluster-index lock.
    pub fn cluster_contention(&self) -> LockContention {
        self.cluster_probe.snapshot()
    }

    /// The `bff_net::FrameHandler` entry point: decode one request
    /// frame, dispatch it, encode the reply. `route` is the listener the
    /// frame arrived on; a frame whose payload addresses a different
    /// role class is rejected as corrupt (misrouted) rather than served.
    pub fn handle_frame(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let req: Req = bff_wire::decode(frame)?;
        if req.route().role() != route.role() {
            return Err(WireError::BadFrame);
        }
        Ok(bff_wire::encode(&self.dispatch(req)))
    }

    /// Serve one typed request against the passive state machines.
    ///
    /// A request for an *unknown provider node* answers exactly like the
    /// direct path's `ProviderStore` (absent chunk / rejected op), so
    /// per-chunk failover semantics survive the transport unchanged.
    pub fn dispatch(&self, req: Req) -> Resp {
        match req {
            Req::Vm(q) => Resp::Vm(self.dispatch_vm(q)),
            Req::Pm(q) => Resp::Pm(self.dispatch_pm(q)),
            Req::Meta(q) => Resp::Meta(self.dispatch_meta(q)),
            Req::Provider { node, req } => Resp::Provider(self.dispatch_provider(node, req)),
            Req::Board(q) => Resp::Board(self.dispatch_board(q)),
            Req::Cluster(q) => Resp::Cluster(self.dispatch_cluster(q)),
        }
    }

    fn dispatch_vm(&self, q: VmReq) -> VmResp {
        match q {
            VmReq::CreateBlob { size, chunk_size } => {
                let (res, ticket) = {
                    let mut vm = self.vmanager.lock();
                    let res = vm.create_blob(size, chunk_size);
                    let ticket = res
                        .is_ok()
                        .then(|| self.journal_append_vm(&VmReq::CreateBlob { size, chunk_size }))
                        .flatten();
                    (res, ticket)
                };
                self.journal_commit(ticket);
                VmResp::Created(res)
            }
            VmReq::CloneBlob { src, version } => {
                let (res, ticket) = {
                    let mut vm = self.vmanager.lock();
                    let res = vm.clone_blob(src, version);
                    let ticket = res
                        .is_ok()
                        .then(|| self.journal_append_vm(&VmReq::CloneBlob { src, version }))
                        .flatten();
                    (res, ticket)
                };
                self.journal_commit(ticket);
                VmResp::Cloned(res)
            }
            VmReq::Latest(blob) => {
                VmResp::Latest(self.vmanager.lock().meta(blob).map(|m| m.latest()))
            }
            VmReq::Size(blob) => VmResp::Size(self.vmanager.lock().meta(blob).map(|m| m.size)),
            VmReq::LiveSnapshots(blob) => {
                VmResp::LiveSnapshots(self.vmanager.lock().live_snapshots(blob))
            }
            VmReq::VersionMeta(blob, version) => {
                let vm = self.vmanager.lock();
                VmResp::VersionMeta(vm.meta(blob).and_then(|meta| {
                    let root = meta
                        .root(version)
                        .ok_or(BlobError::NoSuchVersion(blob, version))?;
                    Ok(VersionInfo {
                        root,
                        size: meta.size,
                        chunk_size: meta.chunk_size,
                        span: meta.span,
                    })
                }))
            }
            VmReq::Publish { blob, base, root } => {
                // The paper's hot mutation: append under the vmanager
                // lock, park on the sync ticket after dropping it —
                // concurrent publishes share one fsync under group
                // commit instead of serializing N barriers behind the
                // state machine.
                let (res, ticket) = {
                    let mut vm = self.vmanager.lock();
                    let res = vm.publish(blob, base, root);
                    let ticket = res
                        .is_ok()
                        .then(|| self.journal_append_vm(&VmReq::Publish { blob, base, root }))
                        .flatten();
                    (res, ticket)
                };
                self.journal_commit(ticket);
                VmResp::Published(res)
            }
            VmReq::DeleteSnapshots { blob, versions } => {
                // Compound under ONE lock: the delete and the live-root
                // frontier snapshot must be atomic, exactly as in the
                // direct path's critical section. Only the sync barrier
                // moves outside it.
                let mut ticket = None;
                let res = {
                    let mut vm = self.vmanager.lock();
                    (|| {
                        let dead_roots = vm.delete_snapshots(blob, &versions)?;
                        ticket = self.journal_append_vm(&VmReq::DeleteSnapshots {
                            blob,
                            versions: versions.clone(),
                        });
                        let live_roots = vm.family_live_roots(blob)?;
                        Ok(DeleteOutcome {
                            dead_roots,
                            live_roots,
                        })
                    })()
                };
                self.journal_commit(ticket);
                VmResp::Deleted(res)
            }
            VmReq::ReserveKeys(n) => {
                let (range, ticket) = {
                    let mut vm = self.vmanager.lock();
                    let range = vm.reserve_keys(n);
                    // Durable via high-water mark, not per-reservation
                    // records: the barrier fires only when the allocator
                    // crosses the last persisted mark.
                    let ticket = self.journal_note_key(vm.next_key());
                    (range, ticket)
                };
                self.journal_commit(ticket);
                VmResp::Reserved(range)
            }
        }
    }

    fn dispatch_pm(&self, q: PmReq) -> PmResp {
        match q {
            PmReq::Allocate {
                n,
                chunk_bytes,
                replication,
                down,
            } => {
                let (res, ticket) = {
                    let mut pm = self.pmanager.lock();
                    let res = pm.allocate_avoiding(n, chunk_bytes, replication, &down);
                    let ticket = if res.is_ok() {
                        self.journal_note_chunk(pm.next_chunk())
                    } else {
                        None
                    };
                    (res, ticket)
                };
                self.journal_commit(ticket);
                PmResp::Allocated(res)
            }
        }
    }

    fn dispatch_meta(&self, q: MetaReq) -> MetaResp {
        match q {
            MetaReq::ReadNodes(keys) => MetaResp::Nodes(self.read_nodes(&keys)),
            MetaReq::WriteNodes(nodes) => {
                self.write_nodes(nodes);
                MetaResp::Written
            }
        }
    }

    /// Split one metadata frame's items into dense per-shard buckets
    /// (ascending shard order; request order within a shard).
    fn by_shard<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        key: impl Fn(&T) -> NodeKey,
    ) -> Vec<Vec<T>> {
        let mut groups: Vec<Vec<T>> = (0..self.meta.len()).map(|_| Vec::new()).collect();
        for item in items {
            groups[partition_of(key(&item), self.meta.len())].push(item);
        }
        groups
    }

    /// Serve one metadata read frame: keys from any shards, each
    /// shard's lock taken once. Nodes come back in request order; the
    /// first missing key in request order fails the whole frame.
    pub(crate) fn read_nodes(&self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        let mut out: Vec<Option<TreeNode>> = vec![None; keys.len()];
        for (shard, group) in self
            .by_shard(keys.iter().copied().enumerate(), |&(_, k)| k)
            .into_iter()
            .enumerate()
        {
            if group.is_empty() {
                continue;
            }
            let part = self.meta[shard].lock();
            for (i, key) in group {
                out[i] = part.get(key).ok();
            }
        }
        out.into_iter()
            .zip(keys)
            .map(|(node, &key)| node.ok_or(BlobError::MetadataMissing(key)))
            .collect()
    }

    /// Serve one metadata write frame: nodes for any shards, each
    /// shard's group journaled as its own `MetaNodes` record and stored
    /// under one acquisition of that shard's lock.
    ///
    /// Journaled without an fsync: nodes are unreachable until the
    /// publish that references them, and the publish's own fsync covers
    /// every record appended before it. Ordering with the shard locks
    /// is immaterial — node keys are write-once with identical content.
    pub(crate) fn write_nodes(&self, nodes: Vec<(NodeKey, TreeNode)>) {
        let groups = self.by_shard(nodes, |(k, _)| *k);
        if let Some(j) = &self.journal {
            let mut journal = j.journal.lock();
            for (shard, group) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
                journal
                    .append_meta(shard as u32, group)
                    .expect("journal meta append");
            }
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                self.meta[shard].lock().put(group);
            }
        }
    }

    fn dispatch_provider(&self, node: bff_net::NodeId, q: ProviderReq) -> ProviderResp {
        match q {
            ProviderReq::Put(items) => ProviderResp::Put(self.providers.put_batch(node, items)),
            ProviderReq::Fetch(ids) => {
                // One provider-shard acquisition for the whole batch;
                // an unknown node serves every chunk as absent, which is
                // what the client's failover path expects.
                let fetched = match self.providers.lock(node) {
                    Some(mut p) => ids.into_iter().map(|id| p.get(id)).collect(),
                    None => vec![None; ids.len()],
                };
                ProviderResp::Fetched(fetched)
            }
            ProviderReq::Peek(id) => {
                ProviderResp::Peeked(self.providers.lock(node).and_then(|p| p.peek(id)))
            }
            ProviderReq::Retain(id) => ProviderResp::Retained(self.providers.retain(node, id)),
            ProviderReq::Release(id) => ProviderResp::Released(self.providers.release(node, id)),
            ProviderReq::ReleaseCounted(id, n) => {
                ProviderResp::ReleaseCounted(self.providers.release_counted(node, id, n))
            }
        }
    }

    fn dispatch_board(&self, q: BoardReq) -> BoardResp {
        match q {
            BoardReq::NovelOf {
                key,
                batch,
                min_publishers,
            } => BoardResp::Novel(self.pattern_board.novel_of(key, &batch, min_publishers)),
            BoardReq::Merge {
                key,
                publisher,
                batch,
            } => BoardResp::Merged(self.pattern_board.merge(key, publisher, &batch)),
            BoardReq::SequenceLen(key) => {
                BoardResp::SequenceLen(self.pattern_board.sequence_len(key))
            }
            BoardReq::Sequence {
                key,
                min_publishers,
            } => BoardResp::Sequence(
                self.pattern_board
                    .sequence_with_confidence(key, min_publishers)
                    .map(|(seq, conf)| ((*seq).clone(), conf)),
            ),
            BoardReq::Purge { keys, freed } => {
                // Snapshot-GC hygiene for both services hosted beside the
                // provider manager, in one message: board patterns and
                // cluster-index entries of the freed chunks.
                for &key in &keys {
                    self.pattern_board.drop_pattern(key);
                }
                let evicted = if freed.is_empty() {
                    0
                } else {
                    let freed: FastSet<_> = freed.into_iter().collect();
                    self.cluster_write().evict_chunks(&freed)
                };
                BoardResp::Purged(evicted)
            }
        }
    }

    fn dispatch_cluster(&self, q: ClusterReq) -> ClusterResp {
        match q {
            ClusterReq::Get(keys) => {
                // One shared acquisition for the whole probe batch.
                let index = self.cluster_read();
                ClusterResp::Got(keys.iter().map(|k| index.get(k)).collect())
            }
            ClusterReq::GetExclusive(key) => {
                // The coarse-probe ablation: one exclusive acquisition
                // per key, exactly as the direct path models it.
                ClusterResp::GotOne(self.cluster_write().get(&key))
            }
            ClusterReq::NovelOf(keys) => {
                ClusterResp::Novel(self.cluster_read().novel_of(keys.iter()))
            }
            ClusterReq::Record(entries) => {
                // One exclusive acquisition for the whole commit batch.
                let mut index = self.cluster_write();
                for (key, desc) in entries {
                    index.record(key, desc);
                }
                ClusterResp::Recorded
            }
            ClusterReq::Forget(key) => {
                self.cluster_write().forget(&key);
                ClusterResp::Forgotten
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_net::NodeId;
    use bff_wire::types::{BlobId, ChunkId};

    fn state() -> ServerState {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        ServerState::new(&BlobConfig::default(), &topo, Placement::RoundRobin)
    }

    #[test]
    fn vm_roundtrip_through_dispatch() {
        let s = state();
        let resp = s.dispatch(Req::Vm(VmReq::CreateBlob {
            size: 1024,
            chunk_size: 256,
        }));
        let Resp::Vm(VmResp::Created(Ok(blob))) = resp else {
            panic!("unexpected response: {resp:?}");
        };
        let resp = s.dispatch(Req::Vm(VmReq::Latest(blob)));
        assert_eq!(resp, Resp::Vm(VmResp::Latest(Ok(crate::api::Version(0)))));
    }

    #[test]
    fn unknown_provider_degrades_gracefully() {
        let s = state();
        let stranger = NodeId(99);
        let resp = s.dispatch(Req::Provider {
            node: stranger,
            req: ProviderReq::Fetch(vec![ChunkId(1), ChunkId(2)]),
        });
        assert_eq!(
            resp,
            Resp::Provider(ProviderResp::Fetched(vec![None, None]))
        );
        let resp = s.dispatch(Req::Provider {
            node: stranger,
            req: ProviderReq::Retain(ChunkId(1)),
        });
        assert_eq!(resp, Resp::Provider(ProviderResp::Retained(false)));
    }

    /// `count` node keys spread over every shard of `s`, with their
    /// shard indices.
    fn keys_on_every_shard(s: &ServerState, count: u64) -> Vec<(NodeKey, usize)> {
        let keys: Vec<(NodeKey, usize)> = (1..=count)
            .map(|k| (NodeKey(k), partition_of(NodeKey(k), s.meta.len())))
            .collect();
        for shard in 0..s.meta.len() {
            assert!(
                keys.iter().any(|&(_, sh)| sh == shard),
                "shard {shard} unused"
            );
        }
        keys
    }

    fn leaf(k: NodeKey) -> TreeNode {
        TreeNode::Leaf {
            chunk: bff_wire::types::ChunkDesc {
                id: ChunkId(100 + k.0),
                replicas: vec![NodeId(k.0 as u32 % 3)].into(),
            },
        }
    }

    #[test]
    fn one_meta_frame_spans_every_shard() {
        let s = state();
        let keys = keys_on_every_shard(&s, 24);
        let nodes: Vec<(NodeKey, TreeNode)> = keys.iter().map(|&(k, _)| (k, leaf(k))).collect();
        assert_eq!(
            s.dispatch(Req::Meta(MetaReq::WriteNodes(nodes))),
            Resp::Meta(MetaResp::Written)
        );
        // Each node landed on its own shard.
        for shard in 0..s.meta.len() {
            let want = keys.iter().filter(|&&(_, sh)| sh == shard).count();
            assert_eq!(s.meta[shard].lock().node_count(), want, "shard {shard}");
        }
        // A read frame across every shard answers in request order.
        let order: Vec<NodeKey> = keys.iter().rev().map(|&(k, _)| k).collect();
        let want: Vec<TreeNode> = order.iter().map(|&k| leaf(k)).collect();
        assert_eq!(
            s.dispatch(Req::Meta(MetaReq::ReadNodes(order.clone()))),
            Resp::Meta(MetaResp::Nodes(Ok(want)))
        );
        // Two missing keys on different shards, the later shard first in
        // the request: the frame fails on the first missing key in
        // request order, not in shard order.
        let absent_on = |shard: usize| {
            (1000..)
                .map(NodeKey)
                .find(|&k| partition_of(k, s.meta.len()) == shard)
                .unwrap()
        };
        let (lo, hi) = (absent_on(0), absent_on(s.meta.len() - 1));
        let probe = vec![order[0], hi, order[1], lo];
        assert_eq!(
            s.dispatch(Req::Meta(MetaReq::ReadNodes(probe))),
            Resp::Meta(MetaResp::Nodes(Err(BlobError::MetadataMissing(hi))))
        );
    }

    #[test]
    fn cross_shard_write_frame_replays_into_its_shards() {
        let dir =
            std::env::temp_dir().join(format!("bff-server-{}-meta-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        let cfg = BlobConfig::default();
        let open = || ServerState::recover(&cfg, &topo, Placement::RoundRobin, &dir).unwrap();

        let (s, _) = open();
        let keys = keys_on_every_shard(&s, 24);
        let frame: Vec<(NodeKey, TreeNode)> = keys.iter().map(|&(k, _)| (k, leaf(k))).collect();
        assert_eq!(
            s.dispatch(Req::Meta(MetaReq::WriteNodes(frame))),
            Resp::Meta(MetaResp::Written)
        );
        // Kill: no destructor, no fsync — the appended records survive
        // only as a SIGKILLed process's writes would, in the page cache.
        std::mem::forget(s);

        let (s, report) = open();
        assert_eq!(report.journal_records, s.meta.len(), "one record per shard");
        for shard in 0..s.meta.len() {
            let want = keys.iter().filter(|&&(_, sh)| sh == shard).count();
            assert_eq!(s.meta[shard].lock().node_count(), want, "shard {shard}");
        }
        let order: Vec<NodeKey> = keys.iter().map(|&(k, _)| k).collect();
        let want: Vec<TreeNode> = order.iter().map(|&k| leaf(k)).collect();
        assert_eq!(s.read_nodes(&order), Ok(want));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misrouted_frame_rejected() {
        let s = state();
        let frame = bff_wire::encode(&Req::Vm(VmReq::Latest(BlobId(1))));
        assert_eq!(
            s.handle_frame(RouteKey::Pm, &frame).unwrap_err(),
            WireError::BadFrame
        );
        // Correctly routed frames decode, dispatch and encode.
        let reply = s.handle_frame(RouteKey::Vm, &frame).unwrap();
        let resp: Resp = bff_wire::decode(&reply).unwrap();
        assert_eq!(
            resp,
            Resp::Vm(VmResp::Latest(Err(BlobError::NoSuchBlob(BlobId(1)))))
        );
    }
}
