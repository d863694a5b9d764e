//! The two-process cluster: server roles hosted by child processes of
//! this same binary (`stackbench serve ...`), one for the managers,
//! board and metadata, one for the chunk providers, attached over
//! loopback TCP.
//!
//! Handshake (the one `blob_server` uses): the child binds one listener
//! per role, prints `<role> <addr>` lines and then `READY`, and serves
//! until its stdin reaches EOF. Dropping a [`Server`] closes that pipe
//! and waits for the child, so no server outlives the benchmark.

use crate::workloads::Workload;
use bff_blobseer::{BlobTopology, Placement, ServerState};
use bff_net::transport::{FrameHandler, FrameServer, Role, RouteKey, RouteTable};
use bff_net::NodeId;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Role list of the manager process.
const MANAGER_ROLES: &str = "vm,pm,board,cluster,meta";
/// Role list of the provider process.
const PROVIDER_ROLES: &str = "provider";

/// How long a child may take from spawn to `READY`.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// One server child. Dropping it shuts the child down and reaps it.
pub(crate) struct Server {
    child: Child,
}

/// A spawned child that has not announced `READY` yet.
struct Starting {
    server: Server,
    stdout: BufReader<ChildStdout>,
}

/// Spawn `exe serve` hosting `roles` with `workload`'s configuration.
/// The child gets the parent's environment minus every `BFF_*`
/// variable, so nothing outside the benchmark can change its config.
fn start(
    exe: &Path,
    workload: Workload,
    roles: &str,
    data_dir: Option<&Path>,
) -> Result<Starting, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .args(["--workload", workload.name()])
        .args(["--roles", roles]);
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BFF_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    Ok(Starting {
        server: Server { child },
        stdout,
    })
}

impl Starting {
    /// Read the child's announcements up to `READY`.
    fn ready(mut self) -> Result<(Server, HashMap<Role, SocketAddr>), String> {
        let deadline = Instant::now() + READY_DEADLINE;
        let mut addrs = HashMap::new();
        loop {
            if Instant::now() > deadline {
                return Err("server did not announce READY in time".into());
            }
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err("server exited before READY".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read server announcement: {e}")),
            }
            let line = line.trim();
            if line == "READY" {
                return Ok((self.server, addrs));
            }
            let parsed = line.split_once(' ').and_then(|(role, addr)| {
                Some((Role::parse(role)?, addr.parse::<SocketAddr>().ok()?))
            });
            let (role, addr) = parsed.ok_or_else(|| format!("bad announcement {line:?}"))?;
            addrs.insert(role, addr);
        }
    }
}

impl Server {
    /// Kill with SIGKILL and reap: no shutdown handshake runs.
    pub(crate) fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// CPU time (user + system) the child has used, in seconds.
    pub(crate) fn cpu_s(&self) -> f64 {
        crate::cpu::proc_cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Peak resident set of the child so far, in bytes.
    pub(crate) fn peak_rss_bytes(&self) -> u64 {
        peak_rss_bytes(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.child.stdin.take()); // EOF asks the child to exit
        let _ = self.child.wait();
    }
}

/// Both processes of a cluster.
pub(crate) struct Cluster {
    pub(crate) managers: Server,
    pub(crate) providers: Server,
    pub(crate) routes: RouteTable,
}

/// Data directories of a durable cluster, one per process.
fn data_dirs(root: &Path) -> (PathBuf, PathBuf) {
    (root.join("managers"), root.join("providers"))
}

/// Spawn both processes (concurrently) and wait until both are ready.
/// With `data_root`, both are durable and replay whatever the
/// directories hold.
pub(crate) fn spawn_cluster(
    exe: &Path,
    workload: Workload,
    data_root: Option<&Path>,
) -> Result<Cluster, String> {
    let dirs = data_root.map(data_dirs);
    let managers = start(
        exe,
        workload,
        MANAGER_ROLES,
        dirs.as_ref().map(|d| d.0.as_path()),
    )?;
    let providers = start(
        exe,
        workload,
        PROVIDER_ROLES,
        dirs.as_ref().map(|d| d.1.as_path()),
    )?;
    let (managers, mut addrs) = managers.ready()?;
    let (providers, provider_addrs) = providers.ready()?;
    addrs.extend(provider_addrs);
    let routes = RouteTable::from_roles(&addrs).ok_or("a role was not announced")?;
    Ok(Cluster {
        managers,
        providers,
        routes,
    })
}

/// `VmHWM` of a `/proc/<pid>/status` file, in bytes (0 if unreadable).
pub(crate) fn peak_rss_bytes(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The `serve` subcommand: host `roles` until stdin reaches EOF.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut roles = Vec::new();
    let mut data_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--roles" => {
                roles = value()?
                    .split(',')
                    .map(|s| Role::parse(s).ok_or(format!("unknown role {s}")))
                    .collect::<Result<_, _>>()?
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    let workload = workload.ok_or("serve needs --workload")?;
    let cfg = workload.blob_config();
    let compute: Vec<NodeId> = (0..crate::workloads::NODES).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(crate::workloads::NODES));
    let state = match &data_dir {
        None => ServerState::new(&cfg, &topo, Placement::RoundRobin),
        Some(dir) => {
            ServerState::recover(&cfg, &topo, Placement::RoundRobin, dir)
                .map_err(|e| format!("recover {}: {e}", dir.display()))?
                .0
        }
    };
    let state = Arc::new(state);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut servers = Vec::with_capacity(roles.len());
    for &role in &roles {
        let route = match role {
            Role::Vm => RouteKey::Vm,
            Role::Pm => RouteKey::Pm,
            Role::Board => RouteKey::Board,
            Role::Cluster => RouteKey::Cluster,
            Role::Meta => RouteKey::Meta(0),
            Role::Provider => RouteKey::Provider(topo.providers[0]),
        };
        let state = Arc::clone(&state);
        let handler: FrameHandler = Arc::new(move |route, frame| state.handle_frame(route, frame));
        let server = FrameServer::start(route, handler).map_err(|e| format!("bind: {e}"))?;
        writeln!(out, "{} {}", role.name(), server.addr()).map_err(|e| e.to_string())?;
        servers.push(server);
    }
    writeln!(out, "READY").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    let stdin = std::io::stdin();
    let mut line = String::new();
    while matches!(stdin.lock().read_line(&mut line), Ok(n) if n > 0) {
        line.clear();
    }
    Ok(())
}
