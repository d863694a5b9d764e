//! Spans and counters recorded from outside the program.
//!
//! Every span is taken around a call the benchmark makes into a public
//! function of the stack: `Cloud`/`MirrorBackend` calls in the
//! workloads, [`Transport::call`] through [`TracedTransport`], and the
//! fan-out primitives of [`Fabric`] through [`TracedFabric`]. A span
//! records its name, start, end, parent and the operation it belongs
//! to; spans are kept in memory and analysed when the run ends.
//!
//! Counters (calls, bytes, errors per transport role; fabric calls) are
//! always on: they are relaxed atomics and cost the same in traced and
//! untraced runs. Spans are recorded only for operations started while
//! tracing is on, so one run can alternate traced and untraced epochs
//! and report the tracing overhead.

use bff_net::transport::{Role, RouteKey, Transport, WireError, WireStats};
use bff_net::{Fabric, NetError, NodeId, TrafficStats, Transfer};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per run; past this many, further spans are counted but
/// dropped, so a long traced run cannot exhaust memory.
const MAX_SPANS: usize = 4 << 20;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The operation (one boot or churn cycle) the span belongs to.
    pub op: u64,
    pub id: u64,
    /// Enclosing span; `0` for an operation's root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ran on a background task (`Fabric::spawn_detached`): nothing
    /// waited for it, so it never counts against its parent's self time.
    pub background: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the current thread is doing on behalf of which operation.
#[derive(Clone, Copy, Default)]
struct Ctx {
    op: u64,
    span: u64,
    traced: bool,
    background: bool,
}

thread_local! {
    static CTX: Cell<Ctx> = const {
        Cell::new(Ctx {
            op: 0,
            span: 0,
            traced: false,
            background: false,
        })
    };
}

/// Whether the calling thread currently runs background (detached) work.
fn in_background() -> bool {
    CTX.with(|c| c.get().background)
}

/// Per-role transport counters.
#[derive(Default)]
pub struct RoleCounters {
    pub calls: AtomicU64,
    pub errors: AtomicU64,
    /// Encoded request plus response bytes.
    pub bytes: AtomicU64,
    /// Calls issued from background (prefetch) tasks.
    pub background: AtomicU64,
}

/// Fabric-call counters.
#[derive(Default)]
pub struct FabricCounters {
    pub par_joins: AtomicU64,
    pub detached: AtomicU64,
    pub rpcs: AtomicU64,
    pub transfers: AtomicU64,
}

/// The span sink and counters of one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    pub roles: [RoleCounters; 6],
    pub fabric: FabricCounters,
}

/// Index of `role` in [`Tracer::roles`] (the order of [`Role::ALL`]).
fn role_index(role: Role) -> usize {
    Role::ALL
        .iter()
        .position(|&r| r == role)
        .expect("every role is in Role::ALL")
}

/// Span name of a transport call to `role`.
pub fn role_span(role: Role) -> &'static str {
    match role {
        Role::Vm => "transport.vm",
        Role::Pm => "transport.pm",
        Role::Board => "transport.board",
        Role::Cluster => "transport.cluster",
        Role::Meta => "transport.meta",
        Role::Provider => "transport.provider",
    }
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            roles: Default::default(),
            fabric: FabricCounters::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start one operation on this thread. Spans opened until the guard
    /// drops belong to it; `traced` decides whether they are recorded.
    pub fn begin_op(&self, name: &'static str, traced: bool) -> OpGuard<'_> {
        let op = self.next_id.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| {
            c.set(Ctx {
                op,
                span: 0,
                traced,
                background: false,
            })
        });
        OpGuard {
            root: Some(self.span(name)),
        }
    }

    /// Open a span named `name` under the thread's current span. A no-op
    /// unless the current operation is traced.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let ctx = CTX.with(|c| c.get());
        if !ctx.traced {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| c.set(Ctx { span: id, ..ctx }));
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                name,
                id,
                saved: ctx,
                start_ns: self.now_ns(),
            }),
        }
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every span recorded so far, plus the count dropped past
    /// [`MAX_SPANS`].
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        (spans, self.dropped.load(Ordering::Relaxed))
    }
}

/// Ends the operation (and its root span) on drop.
pub struct OpGuard<'a> {
    root: Option<SpanGuard<'a>>,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.root.take(); // close the root span first
        CTX.with(|c| c.set(Ctx::default()));
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    saved: Ctx,
    start_ns: u64,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end_ns = open.tracer.now_ns();
            open.tracer.record(Span {
                name: open.name,
                op: open.saved.op,
                id: open.id,
                parent: open.saved.span,
                start_ns: open.start_ns,
                end_ns,
                background: open.saved.background,
            });
            CTX.with(|c| c.set(open.saved));
        }
    }
}

/// Run `task` with the thread context set to `ctx`, restoring the
/// thread's own context afterwards.
fn with_ctx(ctx: Ctx, task: impl FnOnce()) {
    let saved = CTX.with(|c| c.replace(ctx));
    task();
    CTX.with(|c| c.set(saved));
}

/// A [`Transport`] decorator: one span per call, labelled by the role
/// the route addresses, plus per-role counters.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Transport for TracedTransport {
    fn is_direct(&self) -> bool {
        self.inner.is_direct()
    }

    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let role = route.role();
        let counters = &self.tracer.roles[role_index(role)];
        counters.calls.fetch_add(1, Ordering::Relaxed);
        if in_background() {
            counters.background.fetch_add(1, Ordering::Relaxed);
        }
        let result = {
            let _span = self.tracer.span(role_span(role));
            self.inner.call(route, frame)
        };
        match &result {
            Ok(reply) => counters
                .bytes
                .fetch_add((frame.len() + reply.len()) as u64, Ordering::Relaxed),
            Err(_) => counters.errors.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

/// A [`Fabric`] decorator: counts calls, and spans `par_join` and
/// `spawn_detached`, carrying the caller's span into the tasks so the
/// transport calls they make attach to the right parent.
pub struct TracedFabric {
    inner: Arc<dyn Fabric>,
    tracer: Arc<Tracer>,
}

impl TracedFabric {
    pub fn new(inner: Arc<dyn Fabric>, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(Self { inner, tracer })
    }
}

impl Fabric for TracedFabric {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> Result<(), NetError> {
        self.tracer.fabric.transfers.fetch_add(1, Ordering::Relaxed);
        self.inner.transfer(src, dst, bytes)
    }

    fn transfer_all(&self, xfers: &[Transfer]) -> Result<(), NetError> {
        self.tracer
            .fabric
            .transfers
            .fetch_add(xfers.len() as u64, Ordering::Relaxed);
        self.inner.transfer_all(xfers)
    }

    fn rpc(&self, src: NodeId, dst: NodeId, req: u64, resp: u64) -> Result<(), NetError> {
        self.tracer.fabric.rpcs.fetch_add(1, Ordering::Relaxed);
        self.inner.rpc(src, dst, req, resp)
    }

    fn disk_read(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.inner.disk_read(node, bytes)
    }

    fn disk_write(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.inner.disk_write(node, bytes)
    }

    fn disk_write_cached(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.inner.disk_write_cached(node, bytes)
    }

    fn disk_sync(&self, node: NodeId) -> Result<(), NetError> {
        self.inner.disk_sync(node)
    }

    fn compute(&self, node: NodeId, micros: u64) {
        self.inner.compute(node, micros)
    }

    fn par_join(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) {
        self.tracer.fabric.par_joins.fetch_add(1, Ordering::Relaxed);
        let _span = self.tracer.span("fabric.par_join");
        let ctx = CTX.with(|c| c.get());
        let tasks = tasks
            .into_iter()
            .map(|task| Box::new(move || with_ctx(ctx, task)) as Box<dyn FnOnce() + Send>)
            .collect();
        self.inner.par_join(tasks);
    }

    fn spawn_detached(&self, task: Box<dyn FnOnce() + Send + 'static>) {
        self.tracer.fabric.detached.fetch_add(1, Ordering::Relaxed);
        let ctx = Ctx {
            background: true,
            ..CTX.with(|c| c.get())
        };
        let tracer = Arc::clone(&self.tracer);
        self.inner.spawn_detached(Box::new(move || {
            with_ctx(ctx, || {
                let _span = tracer.span("fabric.detached");
                task();
            })
        }));
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.inner.is_down(node)
    }

    fn stats(&self) -> &TrafficStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_untraced_ops_record_nothing() {
        let tracer = Tracer::new();
        {
            let _op = tracer.begin_op("op", false);
            let _s = tracer.span("cloud.deploy");
        }
        assert!(tracer.take_spans().0.is_empty());
        {
            let _op = tracer.begin_op("op", true);
            let _s = tracer.span("cloud.deploy");
            let _t = tracer.span("transport.vm");
        }
        let (spans, dropped) = tracer.take_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).copied().unwrap();
        let (root, deploy, vm) = (
            by_name("op"),
            by_name("cloud.deploy"),
            by_name("transport.vm"),
        );
        assert_eq!(root.parent, 0);
        assert_eq!(deploy.parent, root.id);
        assert_eq!(vm.parent, deploy.id);
        assert!(spans.iter().all(|s| s.op == root.op));
    }

    #[test]
    fn par_join_tasks_inherit_the_callers_span() {
        let tracer = Tracer::new();
        let fabric = TracedFabric::new(bff_net::LocalFabric::new(2), Arc::clone(&tracer));
        {
            let _op = tracer.begin_op("op", true);
            let t = Arc::clone(&tracer);
            fabric.par_join(vec![Box::new(move || drop(t.span("transport.provider")))]);
        }
        let (spans, _) = tracer.take_spans();
        let join = spans.iter().find(|s| s.name == "fabric.par_join").unwrap();
        let call = spans
            .iter()
            .find(|s| s.name == "transport.provider")
            .unwrap();
        assert_eq!(call.parent, join.id);
        assert_eq!(tracer.fabric.par_joins.load(Ordering::Relaxed), 1);
    }
}
