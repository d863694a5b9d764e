//! The three workloads and the closed-loop load generator that drives
//! them.
//!
//! Two client threads run a closed loop: each sends its next operation
//! only when the previous one returned, with no think time; between the
//! two it verifies what it read, outside any timing. Client `c`'s
//! `k`-th operation runs on compute node `(k + 4c) mod 8`, so both
//! clients visit every node and share its `NodeContext` caches over
//! time, as co-located VMs share the paper's per-node FUSE module.
//!
//! The stack runs on a `ThreadFabric` with the `ThreadParams::fast`
//! shape: modelled network and disk costs round to nothing, so wall
//! time is the program's own CPU, locks, loopback sockets and fsyncs.
//! The fabric still counts the modelled traffic.

use crate::cluster::{self, Cluster};
use crate::cpu;
use crate::gen::{self, Dirt, ImageSet, Rng, CHUNK};
use crate::report::{self, LayerInputs, Outcome};
use crate::trace::{TracedFabric, TracedTransport, Tracer};
use bff_blobseer::Version;
use bff_blobseer::{BlobConfig, BlobId, BlobStore, BlobTopology, ReplicationMode, TransportMode};
use bff_cloud::backend::{BackendError, ImageBackend};
use bff_cloud::middleware::{Cloud, VmHandle};
use bff_cloud::params::Calibration;
use bff_core::MirrorStats;
use bff_data::Payload;
use bff_net::transport::SocketTransport;
use bff_net::{Fabric, NodeId, ThreadFabric, ThreadParams};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Modelled compute nodes; the service node is `NODES`.
pub const NODES: u32 = 8;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Traced runs alternate untraced and traced epochs of this length.
const EPOCH: Duration = Duration::from_millis(250);
/// Times a run sets the stack up; `setup_s` is the median.
const SETUPS: usize = 5;
/// Operations run this long before the timed phase starts: connection
/// pools, caches and the churn rotation fill first.
const WARMUP: Duration = Duration::from_secs(1);
/// How often the main thread samples steal time (and checks epochs).
const TICK: Duration = Duration::from_millis(50);
/// Snapshots a churn cycle may deploy: the base image and the most
/// recently published snapshots.
const ROTATION: usize = 8;
/// Published snapshots this many clones below the base are kept (and
/// verified after the restart) but not deployed again, so clone chains
/// stay short and a cycle costs the same early and late in a run.
const MAX_DEPTH: u32 = 3;
/// Published snapshots kept live after they leave the rotation; older
/// ones are deleted. Snapshot GC scans the live snapshots, so an
/// unbounded set would make every cycle dearer than the last.
const RETAINED: usize = 8;
/// A churn cycle terminates its instance (GC) instead of publishing
/// its snapshot once in this many cycles, at random.
const TERMINATE_ONE_IN: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BootCold,
    BootHot,
    SnapshotChurn,
}

/// Sizes of one workload's inputs, stated against the node caches.
struct Shape {
    images: u64,
    chunks: u64,
    shared_chunks: u64,
    touch_pct: u64,
    chunk_cache_bytes: u64,
    desc_cache_versions: usize,
    replication: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BootCold,
        Workload::BootHot,
        Workload::SnapshotChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BootCold => "boot-cold",
            Workload::BootHot => "boot-hot",
            Workload::SnapshotChurn => "snapshot-churn",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (boot-cold, boot-hot, snapshot-churn)"))
    }

    /// Whether the server roles run in two child processes.
    fn remote(self) -> bool {
        self != Workload::BootHot
    }

    fn shape(self) -> Shape {
        match self {
            // 8 images of 1 MiB sharing 4 of 16 chunks: 6.25 MiB of
            // distinct bytes per node against a 1 MiB chunk cache, and
            // more images than the descriptor cache holds versions.
            Workload::BootCold => Shape {
                images: 8,
                chunks: 16,
                shared_chunks: 4,
                touch_pct: 75,
                chunk_cache_bytes: 1 << 20,
                desc_cache_versions: 4,
                replication: 1,
            },
            // A golden image and 3 siblings sharing 12 of its 16
            // chunks: 1.75 MiB distinct, under half of a 4 MiB cache.
            Workload::BootHot => Shape {
                images: 4,
                chunks: 16,
                shared_chunks: 12,
                touch_pct: 75,
                chunk_cache_bytes: 4 << 20,
                desc_cache_versions: 64,
                replication: 1,
            },
            // One 512 KiB base image; every cycle dirties 2 chunks. A
            // boot reads every chunk, the dirty ones included.
            Workload::SnapshotChurn => Shape {
                images: 1,
                chunks: 8,
                shared_chunks: 0,
                touch_pct: 100,
                chunk_cache_bytes: 4 << 20,
                desc_cache_versions: 64,
                replication: 2,
            },
        }
    }

    /// The workload's repository configuration. Every field is set here,
    /// so no `BFF_*` environment variable can change a workload.
    pub fn blob_config(self) -> BlobConfig {
        let s = self.shape();
        BlobConfig::builder()
            .chunk_size(CHUNK)
            .replication(s.replication)
            .replication_mode(ReplicationMode::Fanout)
            .async_writes(true)
            .provider_read_cache(true)
            .node_bytes(96)
            .control_bytes(64)
            .dedup(true)
            .cluster_dedup(true)
            .cluster_index_chunks(1 << 18)
            .desc_cache_versions(s.desc_cache_versions)
            .digest_index_chunks(1 << 16)
            .prefetch(true)
            .prefetch_window(8)
            .prefetch_min_publishers(2)
            .chunk_cache_bytes(s.chunk_cache_bytes)
            .strong_digest(false)
            .coarse_board_lock(false)
            .coarse_cache_locks(false)
            .coarse_cluster_probe(false)
            .transport(if self.remote() {
                TransportMode::Socket
            } else {
                TransportMode::Direct
            })
            .group_commit(true)
            .flush_interval_us(500)
            .build()
    }

    fn inputs(self, seed: u64) -> ImageSet {
        let s = self.shape();
        ImageSet::generate(seed, s.images, s.chunks, s.shared_chunks, s.touch_pct)
    }
}

/// What one run does.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Alternate traced and untraced epochs and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// This benchmark's own executable, re-run as `serve` to host the
    /// server roles.
    pub exe: PathBuf,
    /// Scratch space for durable data directories.
    pub work_dir: PathBuf,
    /// Self-test hook: flip one byte of the first read before verifying.
    pub corrupt_one_read: bool,
    /// Write every recorded span to this file (traced runs).
    pub spans_out: Option<PathBuf>,
}

/// One deployed stack.
struct Stack {
    cloud: Cloud,
    fabric: Arc<TracedFabric>,
    cluster: Option<Cluster>,
    data_root: Option<PathBuf>,
    /// Uploaded images, in input order.
    images: Vec<(BlobId, Version)>,
}

impl Stack {
    fn nodes() -> Vec<NodeId> {
        (0..NODES).map(NodeId).collect()
    }

    fn setup(
        opts: &Opts,
        tracer: &Arc<Tracer>,
        inputs: &ImageSet,
        n: usize,
    ) -> Result<Self, String> {
        let w = opts.workload;
        let cfg = w.blob_config();
        let fabric = TracedFabric::new(
            ThreadFabric::new(ThreadParams::fast(NODES as usize + 1)),
            Arc::clone(tracer),
        );
        let dyn_fabric = Arc::clone(&fabric) as Arc<dyn Fabric>;
        let (cloud, cluster, data_root) = if w.remote() {
            let data_root =
                (w == Workload::SnapshotChurn).then(|| opts.work_dir.join(format!("setup-{n}")));
            let cluster = cluster::spawn_cluster(&opts.exe, w, data_root.as_deref())?;
            let transport = TracedTransport::new(
                Arc::new(SocketTransport::new(cluster.routes)),
                Arc::clone(tracer),
            );
            let topo = BlobTopology::colocated(&Self::nodes(), NodeId(NODES));
            let store = BlobStore::remote(cfg, topo, Arc::clone(&dyn_fabric), Arc::new(transport));
            let cloud = Cloud::with_store(
                store,
                dyn_fabric,
                Self::nodes(),
                NodeId(NODES),
                Calibration::default(),
            );
            (cloud, Some(cluster), data_root)
        } else {
            let cloud = Cloud::new(
                dyn_fabric,
                Self::nodes(),
                NodeId(NODES),
                cfg,
                Calibration::default(),
            );
            (cloud, None, None)
        };
        let mut stack = Stack {
            cloud,
            fabric,
            cluster,
            data_root,
            images: Vec::new(),
        };
        for img in &inputs.images {
            let id = stack
                .cloud
                .upload_image(Payload::from_bytes(img.clone()))
                .map_err(|e| format!("upload: {e}"))?;
            stack.images.push(id);
        }
        if w == Workload::BootHot {
            // Warm every node's caches with every image.
            for node in Self::nodes() {
                for (i, &(blob, version)) in stack.images.iter().enumerate() {
                    let mut vm = stack
                        .cloud
                        .add_instance(blob, version, node)
                        .map_err(|e| format!("warm deploy: {e}"))?;
                    for r in &inputs.boot_reads[i] {
                        vm.backend
                            .read(r.clone())
                            .map_err(|e| format!("warm read: {e}"))?;
                    }
                }
            }
        }
        stack.fabric.quiesce();
        Ok(stack)
    }

    /// Shut the stack down and delete its data.
    fn teardown(self) {
        let Stack {
            cloud,
            cluster,
            data_root,
            ..
        } = self;
        drop(cloud);
        drop(cluster);
        if let Some(dir) = data_root {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Per-client results of the timed phase.
#[derive(Default)]
pub struct ClientLog {
    /// Latency of each completed operation's headline step: the boot
    /// (deploy + boot reads) on boot workloads, the snapshot on churn.
    pub op_ns: Vec<u64>,
    /// When each of those operations completed, in nanoseconds since
    /// the timed phase started.
    pub op_end_ns: Vec<u64>,
    pub terminate_ns: Vec<u64>,
    /// Time spent inside operations (verification excluded).
    pub busy: Duration,
    /// CPU time of this client thread, in total and inside operations.
    pub thread_cpu: Duration,
    pub op_cpu: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub traced_ops: u64,
    pub untraced_ops: u64,
    pub bytes_verified: u64,
    pub mirror: MirrorTotals,
    pub snapshots: u64,
}

/// `MirrorStats` summed over instances.
#[derive(Default, Clone, Copy)]
pub struct MirrorTotals {
    pub remote_bytes: u64,
    pub remote_fetches: u64,
    pub committed_bytes: u64,
    pub deduped_bytes: u64,
}

impl MirrorTotals {
    fn add(&mut self, s: MirrorStats) {
        self.remote_bytes += s.remote_bytes;
        self.remote_fetches += s.remote_fetches;
        self.committed_bytes += s.committed_bytes;
        self.deduped_bytes += s.deduped_bytes;
    }

    fn merge(&mut self, o: &MirrorTotals) {
        self.remote_bytes += o.remote_bytes;
        self.remote_fetches += o.remote_fetches;
        self.committed_bytes += o.committed_bytes;
        self.deduped_bytes += o.deduped_bytes;
    }
}

/// A published churn snapshot and what it must contain.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Snap {
    blob: BlobId,
    version: Version,
    dirt: Option<Dirt>,
    /// Clone depth below the base image (the base is 0).
    depth: u32,
}

/// The churn workload's live published snapshots.
struct Pool {
    /// Deployable: the base image at slot 0, then the most recent
    /// publishes less than [`MAX_DEPTH`] clones deep.
    rotation: Vec<Snap>,
    /// Published, still live, no longer deployed; the oldest are
    /// deleted once more than [`RETAINED`] wait here.
    retired: VecDeque<Snap>,
    /// What each client is deploying right now; never deleted.
    leased: Vec<Snap>,
}

impl Pool {
    fn new(base: Snap) -> Self {
        Pool {
            rotation: vec![base],
            retired: VecDeque::new(),
            leased: Vec::new(),
        }
    }

    fn lease(&mut self, rng: &mut Rng) -> Snap {
        let s = self.rotation[rng.below(self.rotation.len() as u64) as usize];
        self.leased.push(s);
        s
    }

    fn release(&mut self, s: Snap) {
        if let Some(i) = self.leased.iter().position(|&l| l == s) {
            self.leased.swap_remove(i);
        }
    }

    /// Add a published snapshot; returns the snapshots to delete now.
    fn publish(&mut self, s: Snap) -> Vec<Snap> {
        if s.depth < MAX_DEPTH {
            if self.rotation.len() == ROTATION {
                self.retired.push_back(self.rotation.remove(1));
            }
            self.rotation.push(s);
        } else {
            self.retired.push_back(s);
        }
        let mut doomed = Vec::new();
        while self.retired.len() > RETAINED {
            let oldest = self.retired[0];
            if self.leased.contains(&oldest) {
                break;
            }
            doomed.extend(self.retired.pop_front());
        }
        doomed
    }

    /// Every live published snapshot, the base image included.
    fn live(&self) -> Vec<Snap> {
        self.rotation.iter().chain(&self.retired).copied().collect()
    }
}

/// State shared by the clients of one timed phase.
struct Shared<'a> {
    opts: &'a Opts,
    tracer: &'a Tracer,
    stack: &'a Stack,
    inputs: &'a ImageSet,
    tracing: AtomicBool,
    stop: AtomicBool,
    corrupt: AtomicBool,
    /// Churn: the published snapshots.
    pool: Mutex<Pool>,
    reads_checked: AtomicU64,
    created: Instant,
    /// When the timed phase started, in nanoseconds after `created`
    /// (`u64::MAX` until then).
    timed_from_ns: AtomicU64,
}

impl Shared<'_> {
    fn node(client: usize, k: u64) -> NodeId {
        NodeId(((k + (client as u64) * (NODES as u64 / CLIENTS as u64)) % NODES as u64) as u32)
    }

    /// Compare one read with its expected bytes (outside any timing).
    fn check(&self, got: &Payload, expected: &[u8]) -> bool {
        self.reads_checked.fetch_add(1, Ordering::Relaxed);
        if self.corrupt.swap(false, Ordering::Relaxed) {
            return gen::matches(&gen::flipped(got), expected);
        }
        gen::matches(got, expected)
    }

    /// Deploy `(blob, version)` on `node` and issue one boot's reads.
    fn boot(
        &self,
        blob: BlobId,
        version: Version,
        node: NodeId,
        reads: &[std::ops::Range<u64>],
    ) -> Result<(VmHandle, Vec<Payload>), BackendError> {
        let t = self.tracer;
        let mut vm = {
            let _s = t.span("cloud.deploy");
            self.stack.cloud.add_instance(blob, version, node)?
        };
        let mut got = Vec::with_capacity(reads.len());
        for r in reads {
            let _s = t.span("core.read");
            got.push(vm.backend.read(r.clone())?);
        }
        Ok((vm, got))
    }

    /// Nanoseconds since the timed phase started (negative during the
    /// warm-up).
    fn timed_ns(&self) -> i128 {
        self.created.elapsed().as_nanos() as i128
            - self.timed_from_ns.load(Ordering::Relaxed) as i128
    }

    fn run_client(&self, client: usize) -> ClientLog {
        let mut log = ClientLog::default();
        // Operations started during the warm-up are verified but not
        // measured.
        let mut warm = ClientLog::default();
        let mut rng = Rng::new(self.opts.seed, 0x50_0000 + client as u64);
        let mut k = 0u64;
        let mut cpu_start = None;
        while !self.stop.load(Ordering::Relaxed) {
            let traced = self.tracing.load(Ordering::Relaxed);
            let log = if self.timed_ns() >= 0 {
                cpu_start.get_or_insert_with(cpu::thread_cpu);
                &mut log
            } else {
                &mut warm
            };
            log.attempted += 1;
            let ok = match self.opts.workload {
                Workload::BootCold | Workload::BootHot => {
                    self.boot_op(client, k, &mut rng, traced, log)
                }
                Workload::SnapshotChurn => self.churn_op(client, k, &mut rng, traced, log),
            };
            if !ok {
                log.failed += 1;
            } else if traced {
                log.traced_ops += 1;
            } else {
                log.untraced_ops += 1;
            }
            k += 1;
        }
        if let Some(start) = cpu_start {
            log.thread_cpu = cpu::thread_cpu() - start;
        }
        log.attempted += warm.attempted;
        log.failed += warm.failed;
        log.mismatches += warm.mismatches;
        log.bytes_verified += warm.bytes_verified;
        log
    }

    fn boot_op(
        &self,
        client: usize,
        k: u64,
        rng: &mut Rng,
        traced: bool,
        log: &mut ClientLog,
    ) -> bool {
        let n_images = self.stack.images.len() as u64;
        let img = match self.opts.workload {
            // Half the boots are of the golden image.
            Workload::BootHot if rng.chance(1, 2) => 0,
            _ => rng.below(n_images) as usize,
        };
        let (blob, version) = self.stack.images[img];
        let reads = &self.inputs.boot_reads[img];
        let cpu0 = cpu::thread_cpu();
        let started = Instant::now();
        let result = {
            let _op = self.tracer.begin_op("boot", traced);
            self.boot(blob, version, Self::node(client, k), reads)
        };
        let elapsed = started.elapsed();
        log.op_cpu += cpu::thread_cpu() - cpu0;
        log.busy += elapsed;
        let Ok((vm, got)) = result else {
            return false;
        };
        log.op_ns.push(elapsed.as_nanos() as u64);
        log.op_end_ns.push(self.timed_ns().max(0) as u64);
        log.mirror.add(vm.backend.image().stats());
        drop(vm);
        let image = &self.inputs.images[img];
        for (r, p) in reads.iter().zip(&got) {
            log.bytes_verified += p.len();
            if !self.check(p, &image[r.start as usize..r.end as usize]) {
                log.mismatches += 1;
            }
        }
        true
    }

    fn churn_op(
        &self,
        client: usize,
        k: u64,
        rng: &mut Rng,
        traced: bool,
        log: &mut ClientLog,
    ) -> bool {
        let seed = self.opts.seed;
        let from = self.pool.lock().expect("pool poisoned").lease(rng);
        let dirt = Dirt {
            round: k,
            client: client as u64,
        };
        let shared = Payload::from_bytes(dirt.shared(seed));
        let private = Payload::from_bytes(dirt.private(seed));
        let publish = !rng.chance(1, TERMINATE_ONE_IN);
        let reads = &self.inputs.boot_reads[0];
        let t = self.tracer;

        let cpu0 = cpu::thread_cpu();
        let started = Instant::now();
        let mut snapshot_ns = 0;
        let mut terminate_ns = None;
        let result = (|| -> Result<(Vec<Payload>, Snap), BackendError> {
            let _op = t.begin_op("cycle", traced);
            let (mut vm, got) = self.boot(from.blob, from.version, Self::node(client, k), reads)?;
            {
                let _s = t.span("core.write");
                vm.backend.write(gen::DIRTY_AT, shared)?;
            }
            {
                let _s = t.span("core.write");
                vm.backend.write(gen::DIRTY_AT + gen::SHARED_LEN, private)?;
            }
            let snap_started = Instant::now();
            let (blob, version) = {
                let _s = t.span("cloud.snapshot");
                vm.snapshot()?
            };
            snapshot_ns = snap_started.elapsed().as_nanos() as u64;
            log.mirror.add(vm.backend.image().stats());
            let snap = Snap {
                blob,
                version,
                dirt: Some(dirt),
                depth: from.depth + 1,
            };
            if publish {
                let doomed = self.pool.lock().expect("pool poisoned").publish(snap);
                // Drop each doomed snapshot's whole lineage, the clone
                // point included, as terminating its instance would.
                let _s = t.span("cloud.delete");
                let client = self.stack.cloud.client(Self::node(client, k));
                for d in doomed {
                    let versions = client.live_snapshots(d.blob)?;
                    client.delete_snapshots(d.blob, &versions)?;
                }
            } else {
                let term_started = Instant::now();
                let _s = t.span("cloud.terminate");
                self.stack.cloud.terminate_instance(vm)?;
                terminate_ns = Some(term_started.elapsed().as_nanos() as u64);
            }
            Ok((got, snap))
        })();
        log.busy += started.elapsed();
        log.op_cpu += cpu::thread_cpu() - cpu0;
        self.pool.lock().expect("pool poisoned").release(from);
        let Ok((got, _)) = result else {
            return false;
        };
        log.snapshots += 1;
        log.op_ns.push(snapshot_ns);
        log.op_end_ns.push(self.timed_ns().max(0) as u64);
        log.terminate_ns.extend(terminate_ns);
        let base = &self.inputs.images[0];
        for (r, p) in reads.iter().zip(&got) {
            log.bytes_verified += p.len();
            let expected = gen::churn_expected(seed, base, from.dirt, r.clone());
            if !self.check(p, &expected) {
                log.mismatches += 1;
            }
        }
        true
    }
}

/// One line per span: `op id parent name start_ns end_ns background`.
fn write_spans(path: &Path, spans: &[crate::trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op id parent name start_ns end_ns background")?;
    for s in spans {
        writeln!(
            out,
            "{} {} {} {} {} {} {}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.background as u8
        )?;
    }
    out.flush()
}

/// Sizes of the files in a durable data directory tree.
#[derive(Default, Debug, Clone, Copy)]
pub struct DiskUsage {
    pub segment_bytes: u64,
    pub refs_bytes: u64,
    pub journal_bytes: u64,
}

fn disk_usage(dir: &Path, acc: &mut DiskUsage) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let Ok(meta) = e.metadata() else { continue };
        if meta.is_dir() {
            disk_usage(&path, acc);
            continue;
        }
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") {
            acc.segment_bytes += meta.len();
        } else if name == "refs.log" {
            acc.refs_bytes += meta.len();
        } else if name == "journal.log" {
            acc.journal_bytes += meta.len();
        }
    }
}

/// What the churn restart found.
pub struct Restart {
    pub restart_s: f64,
    pub snapshots: u64,
    pub mismatches: u64,
    pub failed: u64,
}

/// SIGKILL both servers, respawn them on their data directories, time
/// spawn→READY, and re-read every acknowledged snapshot in full from a
/// fresh client stack.
fn restart_and_verify(
    opts: &Opts,
    inputs: &ImageSet,
    stack: Stack,
    acked: &[Snap],
) -> Result<Restart, String> {
    let Stack {
        cloud,
        cluster,
        data_root,
        ..
    } = stack;
    drop(cloud);
    let cluster = cluster.expect("churn runs a cluster");
    let data_root = data_root.expect("churn is durable");
    cluster.managers.kill9();
    cluster.providers.kill9();

    let started = Instant::now();
    let cluster = cluster::spawn_cluster(&opts.exe, opts.workload, Some(&data_root))?;
    let restart_s = started.elapsed().as_secs_f64();

    let fabric = ThreadFabric::new(ThreadParams::fast(NODES as usize + 1)) as Arc<dyn Fabric>;
    let topo = BlobTopology::colocated(&Stack::nodes(), NodeId(NODES));
    let store = BlobStore::remote(
        opts.workload.blob_config(),
        topo,
        Arc::clone(&fabric),
        Arc::new(SocketTransport::new(cluster.routes)),
    );
    let cloud = Cloud::with_store(
        store,
        fabric,
        Stack::nodes(),
        NodeId(NODES),
        Calibration::default(),
    );
    let base = &inputs.images[0];
    let len = base.len() as u64;
    let mut out = Restart {
        restart_s,
        snapshots: 0,
        mismatches: 0,
        failed: 0,
    };
    for s in acked {
        out.snapshots += 1;
        match cloud.download_image(s.blob, s.version) {
            Ok(p) => {
                if !gen::matches(&p, &gen::churn_expected(opts.seed, base, s.dirt, 0..len)) {
                    out.mismatches += 1;
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    drop(cloud);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&data_root);
    Ok(out)
}

/// Counter totals at one instant; the run reports deltas over the
/// timed phase.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub net_bytes: u64,
    pub desc_hits: u64,
    pub desc_misses: u64,
    pub dedup_hits: u64,
    pub prefetched_chunks: u64,
    pub prefetch_hits: u64,
    pub prefetch_wasted: u64,
    pub cache_hits: u64,
    pub cache_lock: (u64, u64),
    pub board_lock: (u64, u64),
    pub cluster_lock: (u64, u64),
    pub role_calls: [u64; 6],
    pub role_errors: [u64; 6],
    pub role_bytes: [u64; 6],
    pub role_background: [u64; 6],
    pub par_joins: u64,
    pub detached: u64,
    pub rpcs: u64,
    pub transfers: u64,
}

impl Counters {
    /// Read every counter. Node-context counters are summed over the
    /// compute and service nodes; nothing here needs the server state,
    /// so it is safe on a remote store (board and cluster-index lock
    /// counters exist only in-process and stay 0 otherwise).
    fn sample(stack: &Stack, tracer: &Tracer) -> Self {
        let mut c = Counters {
            net_bytes: stack.fabric.stats().total_network_bytes(),
            ..Default::default()
        };
        for node in (0..=NODES).map(NodeId) {
            let ctx = stack.cloud.node_context(node);
            let s = ctx.stats();
            c.desc_hits += s.desc_hits;
            c.desc_misses += s.desc_misses;
            c.dedup_hits += s.dedup_hits;
            let p = ctx.prefetch_stats();
            c.prefetched_chunks += p.prefetched_chunks;
            c.prefetch_hits += p.hits;
            c.prefetch_wasted += p.wasted_chunks;
            c.cache_hits += p.cache_hits;
            let l = ctx.chunk_cache_contention();
            c.cache_lock.0 += l.acquires;
            c.cache_lock.1 += l.contended;
        }
        if stack.cluster.is_none() {
            let store = stack.cloud.store();
            let b = store.pattern_board().contention();
            c.board_lock = (b.acquires, b.contended);
            let k = store.cluster_contention();
            c.cluster_lock = (k.acquires, k.contended);
        }
        for (i, r) in tracer.roles.iter().enumerate() {
            c.role_calls[i] = r.calls.load(Ordering::Relaxed);
            c.role_errors[i] = r.errors.load(Ordering::Relaxed);
            c.role_bytes[i] = r.bytes.load(Ordering::Relaxed);
            c.role_background[i] = r.background.load(Ordering::Relaxed);
        }
        let f = &tracer.fabric;
        c.par_joins = f.par_joins.load(Ordering::Relaxed);
        c.detached = f.detached.load(Ordering::Relaxed);
        c.rpcs = f.rpcs.load(Ordering::Relaxed);
        c.transfers = f.transfers.load(Ordering::Relaxed);
        c
    }

    fn delta(self, before: Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let d2 = |a: (u64, u64), b: (u64, u64)| (d(a.0, b.0), d(a.1, b.1));
        let d6 = |a: [u64; 6], b: [u64; 6]| std::array::from_fn(|i| d(a[i], b[i]));
        Counters {
            net_bytes: d(self.net_bytes, before.net_bytes),
            desc_hits: d(self.desc_hits, before.desc_hits),
            desc_misses: d(self.desc_misses, before.desc_misses),
            dedup_hits: d(self.dedup_hits, before.dedup_hits),
            prefetched_chunks: d(self.prefetched_chunks, before.prefetched_chunks),
            prefetch_hits: d(self.prefetch_hits, before.prefetch_hits),
            prefetch_wasted: d(self.prefetch_wasted, before.prefetch_wasted),
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_lock: d2(self.cache_lock, before.cache_lock),
            board_lock: d2(self.board_lock, before.board_lock),
            cluster_lock: d2(self.cluster_lock, before.cluster_lock),
            role_calls: d6(self.role_calls, before.role_calls),
            role_errors: d6(self.role_errors, before.role_errors),
            role_bytes: d6(self.role_bytes, before.role_bytes),
            role_background: d6(self.role_background, before.role_background),
            par_joins: d(self.par_joins, before.par_joins),
            detached: d(self.detached, before.detached),
            rpcs: d(self.rpcs, before.rpcs),
            transfers: d(self.transfers, before.transfers),
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Run one workload end to end.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    let inputs = w.inputs(opts.seed);
    let tracer = Tracer::new();
    let shape = w.shape();
    let mut notes = vec![
        format!("workload {} seed {} ({} s timed, {} clients, {} nodes)", w.name(), opts.seed, opts.seconds, CLIENTS, NODES),
        format!("config {:?}", w.blob_config()),
        format!("fabric {:?}", ThreadParams::fast(NODES as usize + 1)),
        format!(
            "inputs: {} image(s) x {} KiB, {} of {} chunks shared, {} KiB distinct; boot reads {} request(s) \
             over ~{}% of chunks; chunk_cache_bytes {} KiB per node (distinct/cache = {:.2}); \
             desc_cache_versions {} vs {} image(s)",
            shape.images,
            inputs.image_bytes() >> 10,
            shape.shared_chunks,
            shape.chunks,
            inputs.distinct_bytes() >> 10,
            inputs.boot_reads.iter().map(Vec::len).sum::<usize>(),
            shape.touch_pct,
            shape.chunk_cache_bytes >> 10,
            inputs.distinct_bytes() as f64 / shape.chunk_cache_bytes as f64,
            shape.desc_cache_versions,
            shape.images,
        ),
    ];
    if w == Workload::SnapshotChurn {
        notes.push(format!(
            "dirty set per cycle: {} KiB shared across clients in a round (one of {} variants) + \
             {} KiB private; \
             terminate (GC) with p = 1/{TERMINATE_ONE_IN}, else publish; rotation of the base + \
             {} recent snapshots less than {MAX_DEPTH} clones deep; {RETAINED} retired snapshots \
             kept live, older lineages deleted",
            gen::SHARED_LEN >> 10,
            gen::SHARED_VARIANTS,
            gen::PRIVATE_LEN >> 10,
            ROTATION - 1,
        ));
    }

    // Set up several times; keep the last stack.
    let mut setup_times = Vec::new();
    let mut stack = None;
    for n in 0..SETUPS {
        if let Some(old) = stack.take() {
            Stack::teardown(old);
        }
        let started = Instant::now();
        stack = Some(Stack::setup(opts, &tracer, &inputs, n)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one setup");
    let setup_s = median(setup_times);

    let shared = Shared {
        opts,
        tracer: &tracer,
        stack: &stack,
        inputs: &inputs,
        tracing: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        corrupt: AtomicBool::new(opts.corrupt_one_read),
        pool: Mutex::new(Pool::new(Snap {
            blob: stack.images[0].0,
            version: stack.images[0].1,
            dirt: None,
            depth: 0,
        })),
        reads_checked: AtomicU64::new(0),
        created: Instant::now(),
        timed_from_ns: AtomicU64::new(u64::MAX),
    };

    let cpu_now = |stack: &Stack| {
        cpu::proc_cpu_s("/proc/self/stat")
            + stack
                .cluster
                .as_ref()
                .map_or(0.0, |c| c.managers.cpu_s() + c.providers.cpu_s())
    };
    let mut epoch_s = [0.0f64; 2]; // [untraced, traced]
                                   // Hypervisor steal ticks over time, to tell quiet windows from ones
                                   // where the host took the CPUs away.
    let mut steal = Vec::new();
    let mut cpu_before = 0.0;
    let mut before = Counters::default();
    let mut started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || shared.run_client(c))
            })
            .collect();
        std::thread::sleep(WARMUP);
        cpu_before = cpu_now(&stack);
        before = Counters::sample(&stack, &tracer);
        started = Instant::now();
        shared.timed_from_ns.store(
            shared.created.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        steal.push((0, cpu::steal_ticks()));
        let deadline = started + Duration::from_secs_f64(opts.seconds);
        let mut traced = false;
        let mut epoch_start = started;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(TICK.min(deadline - now));
            steal.push((started.elapsed().as_nanos() as u64, cpu::steal_ticks()));
            if opts.trace && epoch_start.elapsed() >= EPOCH {
                epoch_s[traced as usize] += epoch_start.elapsed().as_secs_f64();
                epoch_start = Instant::now();
                traced = !traced;
                shared.tracing.store(traced, Ordering::Relaxed);
            }
        }
        epoch_s[traced as usize] += epoch_start.elapsed().as_secs_f64();
        shared.stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    stack.fabric.quiesce();
    // The stack's CPU: this process and the server children, minus
    // what the client threads spent outside operations.
    let outside_ops: f64 = logs
        .iter()
        .map(|l| l.thread_cpu.saturating_sub(l.op_cpu).as_secs_f64())
        .sum();
    let stack_cpu_s = cpu_now(&stack) - cpu_before - outside_ops;
    let counters = Counters::sample(&stack, &tracer).delta(before);
    let (spans, dropped_spans) = tracer.take_spans();
    if let Some(path) = &opts.spans_out {
        write_spans(path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let mut usage = DiskUsage::default();
    if let Some(root) = &stack.data_root {
        disk_usage(root, &mut usage);
    }
    let children_rss: u64 = stack.cluster.as_ref().map_or(0, |c| {
        c.managers.peak_rss_bytes() + c.providers.peak_rss_bytes()
    });
    let live = shared.pool.lock().expect("pool poisoned").live();
    let reads_checked = shared.reads_checked.load(Ordering::Relaxed);
    drop(shared);

    let restart = if w == Workload::SnapshotChurn {
        Some(restart_and_verify(opts, &inputs, stack, &live)?)
    } else {
        stack.teardown();
        None
    };
    let self_rss = cluster::peak_rss_bytes("/proc/self/status");

    let mut mirror = MirrorTotals::default();
    for l in &logs {
        mirror.merge(&l.mirror);
    }
    // Live user bytes of the churn repository: the base image plus the
    // dirty chunks of every acknowledged snapshot (a round's shared
    // chunk counted once).
    let live_user_bytes = if w == Workload::SnapshotChurn {
        let mut rounds: Vec<u64> = live
            .iter()
            .filter_map(|s| s.dirt.map(|d| d.round % gen::SHARED_VARIANTS))
            .collect();
        rounds.sort_unstable();
        rounds.dedup();
        let privates = live.iter().filter(|s| s.dirt.is_some()).count() as u64;
        inputs.image_bytes() + rounds.len() as u64 * gen::SHARED_LEN + privates * gen::PRIVATE_LEN
    } else {
        inputs.distinct_bytes()
    };

    Ok(report::assemble(LayerInputs {
        workload: w,
        trace: opts.trace,
        logs,
        wall_s,
        seconds: opts.seconds,
        steal,
        epoch_s,
        setup_s,
        stack_cpu_s,
        peak_rss_bytes: self_rss + children_rss,
        counters,
        mirror,
        spans,
        dropped_spans,
        usage,
        live_user_bytes,
        reads_checked,
        restart,
        notes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(n: u64, depth: u32) -> Snap {
        Snap {
            blob: BlobId(n),
            version: Version(2),
            dirt: Some(Dirt {
                round: n,
                client: 0,
            }),
            depth,
        }
    }

    #[test]
    fn pool_keeps_the_base_bounds_the_live_set_and_spares_leases() {
        let base = Snap {
            dirt: None,
            ..snap(0, 0)
        };
        let mut pool = Pool::new(base);
        let mut rng = Rng::new(1, 2);
        let leased = pool.lease(&mut rng);
        assert_eq!(leased, base);
        let mut doomed = Vec::new();
        for n in 1..=200 {
            doomed.extend(pool.publish(snap(n, 1 + (n % 3) as u32)));
            assert!(pool.live().len() <= ROTATION + RETAINED);
        }
        assert_eq!(pool.rotation[0], base);
        assert!(pool.rotation.iter().all(|s| s.depth < MAX_DEPTH));
        assert!(!doomed.contains(&base));
        assert_eq!(doomed.len() + pool.live().len(), 201);

        // A retired snapshot still being deployed is not deleted.
        let held = pool.rotation[1];
        pool.leased.push(held);
        for n in 201..=240 {
            let gone = pool.publish(snap(n, 1));
            assert!(!gone.contains(&held));
        }
        pool.release(held);
        assert!(pool.publish(snap(241, 1)).contains(&held));
    }
}
