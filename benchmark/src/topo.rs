//! The three places a workload's server can be: another domain of the same
//! kernel, another node of a simulated network, or another OS process.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::Kernel;
use spring_net::{NetConfig, Network, SocketPeer};
use spring_services::{RegistryClient, StatsClient, STATS_TYPE};
use spring_subcontracts::{register_standard, Simplex};
use subcontract::{
    ship_object, Dispatch, DomainCtx, KernelTransport, ServerSubcontract, SpringObj, TypeInfo,
};

use crate::idl::flatbench;
use crate::serve::{ControlClient, CONTROL_TYPE};

/// A domain with the standard subcontracts and every type the benchmark
/// moves registered.
pub fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    spring_services::register_fs_types(&ctx);
    for ty in [
        &spring_services::kv::BUCKET_TYPE,
        &spring_services::kv::STORE_TYPE,
        &flatbench::FLAT_PING_TYPE,
        &STATS_TYPE,
        &CONTROL_TYPE,
    ] {
        ctx.types().register(ty);
    }
    ctx
}

/// Live door identifiers of a kernel: issued minus deleted.
pub fn live_ids(kernel: &Kernel) -> i64 {
    let s = kernel.stats();
    s.ids_issued as i64 - s.ids_deleted as i64
}

/// Where the server side lives, as the generic benchmark code sees it.
pub trait Topo {
    /// Exports `skel` through simplex on the server side and brings the
    /// object to the client domain. `name` selects the pre-exported object
    /// when the server is another process.
    fn fetch(
        &self,
        name: &str,
        skel: Arc<dyn Dispatch>,
        ty: &'static TypeInfo,
    ) -> Result<SpringObj, String>;
    /// Every kernel of this process that the calls touch.
    fn kernels(&self) -> Vec<Kernel>;
    fn net(&self) -> Option<&Arc<Network>> {
        None
    }
    fn remote(&self) -> Option<&Remote> {
        None
    }
    /// The ladder's name for a stub call across this topology.
    const TOP: &'static str;
    /// The server's domain and a client domain *on the same kernel*, for
    /// the ladder's lower rungs; `None` when the server is another process.
    fn near(&self) -> Option<(&Arc<DomainCtx>, &Arc<DomainCtx>)>;
}

// ----------------------------------------------------------------- local

/// Two domains of one kernel.
pub struct Local {
    pub kernel: Kernel,
    pub server: Arc<DomainCtx>,
    pub client: Arc<DomainCtx>,
}

impl Local {
    pub fn new() -> Local {
        let kernel = Kernel::new("bench");
        let server = ctx_on(&kernel, "server");
        let client = ctx_on(&kernel, "client");
        Local {
            kernel,
            server,
            client,
        }
    }
}

/// Exports through simplex in `server` and moves the object to `client`
/// over plain kernel transfers (both on one kernel).
pub fn export_local(
    server: &Arc<DomainCtx>,
    client: &Arc<DomainCtx>,
    skel: Arc<dyn Dispatch>,
    ty: &'static TypeInfo,
) -> Result<SpringObj, String> {
    let obj = Simplex
        .export(server, skel)
        .map_err(|e| format!("export: {e}"))?;
    ship_object(&KernelTransport, obj, client, ty).map_err(|e| format!("ship: {e}"))
}

impl Topo for Local {
    fn fetch(
        &self,
        _name: &str,
        skel: Arc<dyn Dispatch>,
        ty: &'static TypeInfo,
    ) -> Result<SpringObj, String> {
        export_local(&self.server, &self.client, skel, ty)
    }

    fn kernels(&self) -> Vec<Kernel> {
        vec![self.kernel.clone()]
    }

    const TOP: &'static str = "stub";

    fn near(&self) -> Option<(&Arc<DomainCtx>, &Arc<DomainCtx>)> {
        Some((&self.server, &self.client))
    }
}

// ------------------------------------------------------------------- sim

/// Two nodes of a simulated network with zero latency and no loss, plus a
/// second client domain *on the server's node* for the ladder's
/// same-kernel rungs.
pub struct Sim {
    pub net: Arc<Network>,
    pub server_kernel: Kernel,
    pub client_kernel: Kernel,
    pub server: Arc<DomainCtx>,
    pub client: Arc<DomainCtx>,
    pub near: Arc<DomainCtx>,
}

impl Sim {
    pub fn new() -> Sim {
        let net = Network::new(NetConfig::default());
        let a = net.add_node("bench-server");
        let b = net.add_node("bench-client");
        Sim {
            server: ctx_on(a.kernel(), "server"),
            near: ctx_on(a.kernel(), "near-client"),
            client: ctx_on(b.kernel(), "client"),
            server_kernel: a.kernel().clone(),
            client_kernel: b.kernel().clone(),
            net,
        }
    }
}

impl Topo for Sim {
    fn fetch(
        &self,
        _name: &str,
        skel: Arc<dyn Dispatch>,
        ty: &'static TypeInfo,
    ) -> Result<SpringObj, String> {
        let obj = Simplex
            .export(&self.server, skel)
            .map_err(|e| format!("export: {e}"))?;
        ship_object(&*self.net, obj, &self.client, ty).map_err(|e| format!("ship: {e}"))
    }

    fn kernels(&self) -> Vec<Kernel> {
        vec![self.server_kernel.clone(), self.client_kernel.clone()]
    }

    fn net(&self) -> Option<&Arc<Network>> {
        Some(&self.net)
    }

    const TOP: &'static str = "sim";

    fn near(&self) -> Option<(&Arc<DomainCtx>, &Arc<DomainCtx>)> {
        Some((&self.server, &self.near))
    }
}

// ------------------------------------------------------------------- uds

/// The serving child process and the doors into it.
pub struct Remote {
    child: Child,
    /// Held open for the child's lifetime: the child exits when this pipe
    /// closes, so it cannot outlive a crashed parent.
    _stdin: ChildStdin,
    sock: PathBuf,
    pub peer: Arc<SocketPeer>,
    pub registry: RegistryClient,
    pub stats: StatsClient,
    pub control: ControlClient,
}

impl Remote {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// This process (one network node) connected over a Unix-domain socket to
/// the same binary re-executed as `benchmark serve`.
pub struct Uds {
    pub net: Arc<Network>,
    pub kernel: Kernel,
    pub remote: Remote,
}

/// A socket path inside the directory the binary was built into (always a
/// build-output directory, so nothing lands among sources), expressed
/// relative to the working directory when possible: `sun_path` holds 108
/// bytes and checkouts can sit deep.
fn socket_path() -> Result<PathBuf, String> {
    static N: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("binary has no parent directory")?;
    let name = format!(
        "bm-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    );
    let full = dir.join(name);
    let short = std::env::current_dir()
        .ok()
        .and_then(|cwd| full.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(full);
    if short.as_os_str().len() >= 100 {
        return Err(format!(
            "socket path {} is too long for a Unix socket; run from the checkout root",
            short.display()
        ));
    }
    Ok(short)
}

impl Uds {
    pub fn new() -> Result<Uds, String> {
        let sock = socket_path()?;
        let _ = std::fs::remove_file(&sock);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--uds")
            .arg(&sock)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut ready = String::new();
        let read = BufReader::new(stdout).read_line(&mut ready);
        if read.is_err() || ready.trim() != "READY" {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not come up (said {ready:?})"));
        }

        let net = Network::new(NetConfig::default());
        let node = net.add_node_with_id("bench-drive", 1);
        let client = ctx_on(node.kernel(), "client");
        let connect = || -> Result<_, String> {
            let path = sock.to_str().ok_or("socket path is not UTF-8")?;
            let peer = net
                .connect_uds(node.id(), path)
                .map_err(|e| format!("connect: {e}"))?;
            let boot = peer
                .bootstrap_door(client.domain())
                .map_err(|e| format!("bootstrap door: {e}"))?;
            let registry = RegistryClient::new(client.clone(), boot);
            let stats = registry
                .lookup("stats", &STATS_TYPE)
                .map_err(|e| format!("lookup stats: {e}"))?;
            let control = registry
                .lookup("control", &CONTROL_TYPE)
                .map_err(|e| format!("lookup control: {e}"))?;
            Ok((peer, registry, StatsClient(stats), ControlClient(control)))
        };
        match connect() {
            Ok((peer, registry, stats, control)) => Ok(Uds {
                kernel: node.kernel().clone(),
                remote: Remote {
                    child,
                    _stdin: stdin,
                    sock,
                    peer,
                    registry,
                    stats,
                    control,
                },
                net,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&sock);
                Err(e)
            }
        }
    }
}

impl Topo for Uds {
    fn fetch(
        &self,
        name: &str,
        _skel: Arc<dyn Dispatch>,
        ty: &'static TypeInfo,
    ) -> Result<SpringObj, String> {
        self.remote
            .registry
            .lookup(name, ty)
            .map_err(|e| format!("lookup {name}: {e}"))
    }

    fn kernels(&self) -> Vec<Kernel> {
        vec![self.kernel.clone()]
    }

    fn net(&self) -> Option<&Arc<Network>> {
        Some(&self.net)
    }

    fn remote(&self) -> Option<&Remote> {
        Some(&self.remote)
    }

    const TOP: &'static str = "uds";

    fn near(&self) -> Option<(&Arc<DomainCtx>, &Arc<DomainCtx>)> {
        None
    }
}
