//! The `caqr-serve` binary: bind, print the address, serve until SIGTERM.
//!
//! ```text
//! caqr-serve [--port N] [--addr HOST] [--shards N] [--workers N]
//!            [--queue N] [--max-connections N] [--cache N]
//!            [--default-timeout-ms N]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the chosen address is
//! printed as the first stdout line (`listening on 127.0.0.1:PORT`) so
//! scripts and the load generator can pick it up. `--shards N` runs N
//! reactor threads, each with its own `SO_REUSEPORT` listener. The process
//! raises its open-file soft limit at startup (the many-connections
//! posture) and parks — no polling — until SIGTERM/SIGINT trigger the
//! graceful drain; it exits 0 once every in-flight request has been
//! answered.

use caqr_serve::{signal, Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("caqr-serve: {message}");
            eprintln!();
            eprintln!("usage: caqr-serve [--port N] [--addr HOST] [--shards N] [--workers N]");
            eprintln!("                  [--queue N] [--max-connections N] [--cache N]");
            eprintln!("                  [--default-timeout-ms N]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut host = "127.0.0.1".to_string();
    let mut port = 0u16;
    let mut config = ServerConfig::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--port" => {
                port = it
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|_| "bad --port value")?;
            }
            "--addr" => {
                host = it.next().ok_or("--addr needs a value")?.clone();
            }
            "--shards" => {
                config.shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse::<usize>()
                    .map_err(|_| "bad --shards value")?
                    .clamp(1, 64);
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "bad --workers value")?;
            }
            "--queue" => {
                config.queue_capacity = it
                    .next()
                    .ok_or("--queue needs a value")?
                    .parse()
                    .map_err(|_| "bad --queue value")?;
            }
            "--max-connections" => {
                config.max_connections = it
                    .next()
                    .ok_or("--max-connections needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-connections value")?;
            }
            "--cache" => {
                config.cache_capacity = it
                    .next()
                    .ok_or("--cache needs a value")?
                    .parse()
                    .map_err(|_| "bad --cache value")?;
            }
            "--default-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--default-timeout-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --default-timeout-ms value")?;
                config.request_limits.default_timeout = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    config.addr = format!("{host}:{port}");

    // Best effort: without this, 512-connection runs can exhaust the
    // default 1024-fd soft limit (connections + pipes + listeners).
    let _ = caqr_reactor::raise_nofile_limit();

    signal::install_handlers();
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", server.local_addr());

    let handle = server.shutdown_handle();
    signal::wait_for_shutdown();
    eprintln!("caqr-serve: shutdown requested, draining");
    handle.shutdown();
    server.join();
    Ok(())
}
