//! The daemon's control socket: a line protocol over TCP driving the
//! running/candidate [`ConfigStore`] from outside the process.
//!
//! One command per line, one-or-more response lines per command, and the
//! final response line always starts with `ok` or `err` — trivially
//! scriptable with `nc`. Edits accumulate in the candidate config and
//! take effect only on `commit`, exactly the semantics of
//! [`ConfigStore`]:
//!
//! ```text
//! show running | show candidate | show status
//! set stamp arrival | set stamp logical <us>
//! peer policy any | peer policy allow
//! peer allow <asn> | peer remove <asn>
//! route-server add <asn>@<ip> | route-server del <asn>@<ip>
//! listen add <addr> | listen del <addr>
//! trace default <level> | trace <target> <level>
//! metrics
//! commit | discard | quit
//! ```
//!
//! The server handles one connection at a time (an operator tool, not a
//! data plane) and exits when the daemon's [`ShutdownFlag`] trips.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use kcc_bgp_types::Asn;
use kcc_collector::ShutdownFlag;
use kcc_obs::TraceLevel;

use crate::collector::StampMode;
use crate::config::{ConfigStore, DaemonConfig, PeerPolicy};

/// The control-socket server thread.
pub struct ControlServer {
    local_addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ControlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlServer").field("local_addr", &self.local_addr).finish()
    }
}

impl ControlServer {
    /// Binds the control socket and serves commands against `store`
    /// until `shutdown` trips.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        store: Arc<ConfigStore>,
        shutdown: ShutdownFlag,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let handle = std::thread::Builder::new()
            .name("kcc-control".to_owned())
            .spawn(move || serve(listener, store, shutdown))?;
        Ok(ControlServer { local_addr, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Waits for the server thread to exit (trigger the shutdown flag
    /// first).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve(listener: TcpListener, store: Arc<ConfigStore>, shutdown: ShutdownFlag) {
    while !shutdown.is_triggered() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_connection(stream, &store, &shutdown);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    store: &ConfigStore,
    shutdown: &ShutdownFlag,
) -> io::Result<()> {
    // A finite read timeout lets the shutdown flag end an idle
    // connection instead of parking the thread forever.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutdown.is_triggered() {
            return Ok(());
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // peer closed
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => return Err(e),
        }
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        if cmd == "quit" {
            writeln!(writer, "ok bye")?;
            return Ok(());
        }
        let response = dispatch(cmd, store);
        writer.write_all(response.as_bytes())?;
    }
}

/// Executes one command; the returned string ends with a newline and its
/// final line starts with `ok` or `err`.
fn dispatch(cmd: &str, store: &ConfigStore) -> String {
    match run_command(cmd, store) {
        Ok(msg) => msg,
        Err(msg) => format!("err {msg}\n"),
    }
}

fn run_command(cmd: &str, store: &ConfigStore) -> Result<String, String> {
    let words: Vec<&str> = cmd.split_whitespace().collect();
    match words.as_slice() {
        ["show", "running"] => Ok(format!("{}ok\n", render(&store.running()))),
        ["show", "candidate"] => Ok(format!("{}ok\n", render(&store.candidate()))),
        ["show", "status"] => {
            Ok(format!("generation={}\ndirty={}\nok\n", store.generation(), store.dirty()))
        }
        ["metrics"] => Ok(format!("{}ok\n", store.metrics().render())),
        ["set", "stamp", "arrival"] => {
            store.edit(|c| c.stamp = StampMode::Arrival);
            Ok("ok stamp=arrival\n".to_owned())
        }
        ["set", "stamp", "logical", us] => {
            let us: u64 = us.parse().map_err(|_| format!("bad spacing {us:?}"))?;
            store.edit(|c| c.stamp = StampMode::Logical { spacing_us: us });
            Ok(format!("ok stamp=logical:{us}\n"))
        }
        ["peer", "policy", "any"] => {
            store.edit(|c| c.peers = PeerPolicy::AcceptAny);
            Ok("ok peers=any\n".to_owned())
        }
        ["peer", "policy", "allow"] => {
            store.edit(|c| {
                if !matches!(c.peers, PeerPolicy::Allow(_)) {
                    c.peers = PeerPolicy::Allow(BTreeSet::new());
                }
            });
            Ok("ok peers=allow\n".to_owned())
        }
        ["peer", "allow", asn] => {
            let asn = parse_asn(asn)?;
            store.edit(|c| match &mut c.peers {
                PeerPolicy::Allow(set) => {
                    set.insert(asn);
                }
                PeerPolicy::AcceptAny => {
                    c.peers = PeerPolicy::Allow([asn].into());
                }
            });
            Ok(format!("ok allow AS{}\n", asn.0))
        }
        ["peer", "remove", asn] => {
            let asn = parse_asn(asn)?;
            let mut removed = false;
            store.edit(|c| {
                if let PeerPolicy::Allow(set) = &mut c.peers {
                    removed = set.remove(&asn);
                }
            });
            if removed {
                Ok(format!("ok removed AS{}\n", asn.0))
            } else {
                Err(format!("AS{} not in allowlist (policy must be allow)", asn.0))
            }
        }
        ["route-server", "add", spec] => {
            let (asn, ip) = parse_peer_spec(spec)?;
            store.edit(|c| {
                if !c.route_servers.contains(&(asn, ip)) {
                    c.route_servers.push((asn, ip));
                }
            });
            Ok(format!("ok route-server AS{}@{ip}\n", asn.0))
        }
        ["route-server", "del", spec] => {
            let (asn, ip) = parse_peer_spec(spec)?;
            let mut removed = false;
            store.edit(|c| {
                let before = c.route_servers.len();
                c.route_servers.retain(|&e| e != (asn, ip));
                removed = c.route_servers.len() != before;
            });
            if removed {
                Ok(format!("ok removed route-server AS{}@{ip}\n", asn.0))
            } else {
                Err(format!("AS{}@{ip} is not a route server", asn.0))
            }
        }
        ["listen", "add", addr] => {
            let addr: SocketAddr = addr.parse().map_err(|_| format!("bad address {addr:?}"))?;
            store.edit(|c| {
                if !c.listen.contains(&addr) {
                    c.listen.push(addr);
                }
            });
            Ok(format!("ok listen {addr}\n"))
        }
        ["listen", "del", addr] => {
            let addr: SocketAddr = addr.parse().map_err(|_| format!("bad address {addr:?}"))?;
            let mut removed = false;
            store.edit(|c| {
                let before = c.listen.len();
                c.listen.retain(|&a| a != addr);
                removed = c.listen.len() != before;
            });
            if removed {
                Ok(format!("ok removed listen {addr}\n"))
            } else {
                Err(format!("{addr} is not an extra listener"))
            }
        }
        ["trace", "default", level] => {
            let level = parse_level(level)?;
            store.edit(|c| c.trace.default = level);
            Ok(format!("ok trace default={level}\n"))
        }
        ["trace", target, level] => {
            let level = parse_level(level)?;
            let target = (*target).to_owned();
            let reply = format!("ok trace {target}={level}\n");
            store.edit(move |c| {
                c.trace.targets.insert(target, level);
            });
            Ok(reply)
        }
        ["commit"] => {
            let generation = store.commit();
            Ok(format!("ok generation={generation}\n"))
        }
        ["discard"] => {
            if store.discard() {
                Ok("ok discarded\n".to_owned())
            } else {
                Ok("ok clean\n".to_owned())
            }
        }
        _ => Err(format!("unknown command {cmd:?}")),
    }
}

fn parse_asn(s: &str) -> Result<Asn, String> {
    let digits = s.strip_prefix("AS").unwrap_or(s);
    digits.parse::<u32>().map(Asn).map_err(|_| format!("bad ASN {s:?}"))
}

fn parse_level(s: &str) -> Result<TraceLevel, String> {
    TraceLevel::parse(s).ok_or_else(|| format!("bad level {s:?} (off|error|info|debug|trace)"))
}

fn parse_peer_spec(s: &str) -> Result<(Asn, IpAddr), String> {
    let (asn, ip) = s.split_once('@').ok_or_else(|| format!("expected ASN@IP, got {s:?}"))?;
    let asn = parse_asn(asn)?;
    let ip: IpAddr = ip.parse().map_err(|_| format!("bad IP {ip:?}"))?;
    Ok((asn, ip))
}

fn render(cfg: &DaemonConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "stamp={}\n",
        match cfg.stamp {
            StampMode::Arrival => "arrival".to_owned(),
            StampMode::Logical { spacing_us } => format!("logical:{spacing_us}"),
        }
    ));
    out.push_str(&match &cfg.peers {
        PeerPolicy::AcceptAny => "peers=any\n".to_owned(),
        PeerPolicy::Allow(set) => {
            let list: Vec<String> = set.iter().map(|a| format!("AS{}", a.0)).collect();
            format!("peers=allow:{}\n", list.join(","))
        }
    });
    let rs: Vec<String> =
        cfg.route_servers.iter().map(|(a, ip)| format!("AS{}@{ip}", a.0)).collect();
    out.push_str(&format!("route_servers={}\n", rs.join(",")));
    out.push_str(&match &cfg.mrt {
        None => "mrt=none\n".to_owned(),
        Some(rc) => format!(
            "mrt=dir:{},prefix:{},max_records:{}\n",
            rc.dir.display(),
            rc.prefix,
            rc.max_records
        ),
    });
    let listen: Vec<String> = cfg.listen.iter().map(|a| a.to_string()).collect();
    out.push_str(&format!("listen={}\n", listen.join(",")));
    let mut trace = vec![format!("default:{}", cfg.trace.default)];
    trace.extend(cfg.trace.targets.iter().map(|(t, l)| format!("{t}:{l}")));
    out.push_str(&format!("trace={}\n", trace.join(",")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_store() -> ConfigStore {
        ConfigStore::new(DaemonConfig::default())
    }

    fn ok(store: &ConfigStore, cmd: &str) -> String {
        let out = dispatch(cmd, store);
        assert!(out.lines().last().unwrap().starts_with("ok"), "command {cmd:?} failed: {out}");
        out
    }

    #[test]
    fn edit_then_commit_round_trip() {
        let store = fresh_store();
        ok(&store, "set stamp logical 1000");
        ok(&store, "peer allow 65001");
        ok(&store, "route-server add AS65001@10.0.0.1");
        ok(&store, "trace reactor debug");
        assert!(store.dirty());
        assert!(ok(&store, "show candidate").contains("stamp=logical:1000"));
        assert!(ok(&store, "show running").contains("stamp=arrival"), "not yet committed");

        ok(&store, "commit");
        let running = ok(&store, "show running");
        assert!(running.contains("stamp=logical:1000"));
        assert!(running.contains("peers=allow:AS65001"));
        assert!(running.contains("route_servers=AS65001@10.0.0.1"));
        assert!(running.contains("trace=default:error,reactor:debug"));
        assert!(store.trace().enabled("reactor", TraceLevel::Debug));
    }

    #[test]
    fn metrics_command_renders_the_registry() {
        let store = fresh_store();
        store.metrics().counter("kcc_control_test_total").add(7);
        let out = ok(&store, "metrics");
        assert!(out.contains("# TYPE kcc_control_test_total counter"), "{out}");
        assert!(out.contains("kcc_control_test_total 7"), "{out}");
        assert!(out.ends_with("ok\n"), "{out}");
    }

    #[test]
    fn discard_resets_candidate() {
        let store = fresh_store();
        ok(&store, "set stamp logical 77");
        assert_eq!(ok(&store, "discard"), "ok discarded\n");
        assert!(ok(&store, "show candidate").contains("stamp=arrival"));
        assert_eq!(ok(&store, "discard"), "ok clean\n");
    }

    #[test]
    fn malformed_commands_err_without_editing() {
        let store = fresh_store();
        for bad in [
            "set stamp logical nope",
            "peer allow nonsense",
            "route-server add 65001",
            "trace reactor loud",
            "listen add not-an-addr",
            "frobnicate",
            "peer remove 65001",
        ] {
            let out = dispatch(bad, &store);
            assert!(out.starts_with("err "), "{bad:?} should fail, got {out}");
        }
        assert!(!store.dirty(), "failed commands must not dirty the candidate");
    }

    #[test]
    fn server_answers_over_tcp() {
        let store = Arc::new(fresh_store());
        let shutdown = ShutdownFlag::new();
        let server =
            ControlServer::bind("127.0.0.1:0", Arc::clone(&store), shutdown.clone()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        writeln!(conn, "set stamp logical 500").unwrap();
        writeln!(conn, "commit").unwrap();
        writeln!(conn, "quit").unwrap();
        let mut reply = String::new();
        let mut reader = BufReader::new(conn);
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            reply.push_str(&line);
        }
        assert!(reply.contains("ok stamp=logical:500"));
        assert!(reply.contains("ok generation=2"));
        assert!(reply.contains("ok bye"));
        assert_eq!(store.running().stamp, StampMode::Logical { spacing_us: 500 });
        shutdown.trigger();
        server.join();
    }
}
