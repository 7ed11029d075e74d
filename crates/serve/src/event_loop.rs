//! The server ("the reactor"): N shard threads, each running a readiness
//! loop over one listener and the connections it accepted, with compute
//! dispatched to a shared worker pool.
//!
//! ```text
//!   TCP ──▶ shard 0 ─┐                       ┌─▶ worker 0 ─┐
//!   TCP ──▶ shard 1 ─┼─▶ job queue (Condvar) ┼─▶ worker 1 ─┼─▶ handlers
//!   TCP ──▶ shard N ─┘                       └─▶ worker M ─┘
//!            ▲                                      │
//!            └───── completion + self-pipe wake ────┘
//! ```
//!
//! Each shard owns a [`caqr_reactor::Poller`], a [`caqr_reactor::TimerWheel`]
//! (keep-alive idle + request-stall eviction), and a slab of
//! [`Conn`] state machines. Cheap requests (`/healthz`, `/metrics`,
//! response-cache hits) are answered inline on the shard thread; compute
//! goes to the worker queue and the connection's readiness interest is
//! muted until the completion comes back (natural backpressure). With
//! `shards > 1` every shard binds its own `SO_REUSEPORT` listener and the
//! kernel spreads incoming connections across them.
//!
//! Slot reuse is guarded twice: completions carry the connection
//! generation they were dispatched under (stale ones are dropped), and
//! slots freed during a loop pass only become reusable at the end of that
//! pass, so nothing issued earlier in the pass can alias a new occupant.

use crate::conn::{Conn, Filled, Phase, WriteOutcome};
use crate::handlers::{self, AppState, Endpoint, Routed};
use crate::http::{BadRequest, Request, Response};
use crate::metrics::ReactorMetrics;
use crate::server::{effective_workers, ServerConfig};
use caqr_reactor::{bind_reuseport, Event, Interest, Poller, TimerWheel, Token, Waker};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One compute request handed from a shard to the worker pool.
struct Job {
    shard: usize,
    slot: usize,
    gen: u64,
    endpoint: Endpoint,
    body: Vec<u8>,
}

/// A finished job on its way back to the shard that dispatched it.
struct Completion {
    slot: usize,
    gen: u64,
    response: Response,
}

/// State shared by every shard and worker.
struct Control {
    state: Arc<AppState>,
    config: ServerConfig,
    rmetrics: Arc<ReactorMetrics>,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Per-shard completion mailboxes (indexed by shard id).
    completions: Vec<Mutex<Vec<Completion>>>,
    /// Per-shard pollers' wakers (indexed by shard id).
    wakers: Vec<Waker>,
    /// Live worker handles; the drop guard pushes replacements here.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Control {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Starts the drain: flag it, wake every worker and shard. Idempotent
    /// (the grace window is anchored at the first call).
    fn shutdown(&self) {
        {
            let mut started = self
                .drain_started
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if started.is_none() {
                *started = Some(Instant::now());
            }
        }
        self.draining.store(true, Ordering::SeqCst);
        self.available.notify_all();
        for waker in &self.wakers {
            waker.wake();
        }
    }

    fn grace_deadline(&self) -> Instant {
        let started = self
            .drain_started
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        started.unwrap_or_else(Instant::now) + self.config.drain_grace
    }
}

/// Triggers the drain sequence from another thread (or a signal watcher).
#[derive(Clone)]
pub struct ShutdownHandle {
    control: Arc<Control>,
}

impl ShutdownHandle {
    /// Starts the shutdown: stop admitting, drain, exit. Idempotent.
    pub fn shutdown(&self) {
        self.control.shutdown();
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle").finish_non_exhaustive()
    }
}

/// A running server: shard threads plus the worker pool.
pub struct Server {
    local_addr: SocketAddr,
    control: Arc<Control>,
    shards: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `config.addr` and starts the shards and workers.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures, and `Unsupported`
    /// off Unix, where there is no readiness I/O.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let state = Arc::new(AppState::with_capacities(
            config.cache_capacity,
            config.response_cache_capacity,
            config.request_limits.clone(),
        ));
        let shard_count = config.shards.max(1);
        let mut listeners = Vec::with_capacity(shard_count);
        if shard_count == 1 {
            listeners.push(TcpListener::bind(&config.addr)?);
        } else {
            let base = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "bind address resolved to nothing",
                )
            })?;
            let first = bind_reuseport(base)?;
            let resolved = first.local_addr()?;
            listeners.push(first);
            for _ in 1..shard_count {
                listeners.push(bind_reuseport(resolved)?);
            }
        }
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        let local_addr = listeners[0].local_addr()?;

        // Pollers before anything that could observe the server: their
        // wakers must exist before the first worker or shard runs. Off
        // Unix this is where `bind` fails with `Unsupported`.
        let mut pollers = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            pollers.push(Poller::new()?);
        }
        let wakers: Vec<Waker> = pollers.iter().map(Poller::waker).collect();
        let rmetrics = Arc::new(ReactorMetrics::new(shard_count));
        let _ = state.reactor.set(Arc::clone(&rmetrics));

        let control = Arc::new(Control {
            state,
            config,
            rmetrics,
            draining: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
            workers: Mutex::new(Vec::new()),
        });

        for index in 0..effective_workers(control.config.workers) {
            spawn_worker(Arc::clone(&control), index)?;
        }
        let mut shards = Vec::with_capacity(shard_count);
        for (id, (poller, listener)) in pollers.into_iter().zip(listeners).enumerate() {
            let control = Arc::clone(&control);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("caqr-shard-{id}"))
                    .spawn(move || Shard::new(id, poller, listener, control).run())?,
            );
        }

        Ok(Server {
            local_addr,
            control,
            shards,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that triggers graceful shutdown.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            control: Arc::clone(&self.control),
        }
    }

    /// Blocks until the drain sequence completes and every shard and
    /// worker (including respawns) has exited. Call
    /// [`ShutdownHandle::shutdown`] first (or from another thread) or this
    /// blocks forever.
    pub fn join(mut self) {
        for handle in self.shards.drain(..) {
            let _ = handle.join();
        }
        loop {
            let handle = {
                let mut workers = self
                    .control
                    .workers
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                workers.pop()
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => return,
            }
        }
    }
}

// ---- the worker pool ----------------------------------------------------

fn spawn_worker(control: Arc<Control>, index: usize) -> io::Result<()> {
    let handle = std::thread::Builder::new()
        .name(format!("caqr-rworker-{index}"))
        .spawn({
            let control = Arc::clone(&control);
            move || {
                let _guard = RespawnGuard {
                    control: Arc::clone(&control),
                    index,
                };
                worker_loop(&control);
            }
        })?;
    control
        .workers
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push(handle);
    Ok(())
}

/// Respawns the worker if its thread dies panicking (a panic that escaped
/// the per-request `catch_unwind`). Runs on the dying thread itself.
struct RespawnGuard {
    control: Arc<Control>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.control.draining() {
            self.control
                .state
                .metrics
                .workers_replaced
                .fetch_add(1, Ordering::Relaxed);
            let _ = spawn_worker(Arc::clone(&self.control), self.index);
        }
    }
}

/// Pops jobs until draining *and* the queue is empty (queued work is
/// always finished), pushing each completion back to its shard's mailbox
/// and waking that shard's poller.
fn worker_loop(control: &Control) {
    loop {
        let job = {
            let mut queue = control.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    control
                        .rmetrics
                        .dispatch_queue_depth
                        .fetch_sub(1, Ordering::Relaxed);
                    break Some(job);
                }
                if control.draining() {
                    break None;
                }
                let (guard, _) = control
                    .available
                    .wait_timeout(queue, Duration::from_millis(500))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                queue = guard;
            }
        };
        let Some(job) = job else { return };

        let response = match catch_unwind(AssertUnwindSafe(|| {
            handlers::execute(&control.state, job.endpoint, &job.body)
        })) {
            Ok(response) => response,
            Err(_) => {
                control
                    .state
                    .metrics
                    .handler_panics
                    .fetch_add(1, Ordering::Relaxed);
                Response::error(500, "internal error: request handler panicked")
            }
        };
        {
            let mut mailbox = control.completions[job.shard]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            mailbox.push(Completion {
                slot: job.slot,
                gen: job.gen,
                response,
            });
        }
        control.rmetrics.wakeups.fetch_add(1, Ordering::Relaxed);
        control.wakers[job.shard].wake();
    }
}

// ---- the shard loop -----------------------------------------------------

const LISTENER: Token = Token(0);

/// Timer payload layout: bit 63 = kind, bits 32..=62 = low generation
/// bits, bits 0..=31 = slot. The generation bits are belt-and-braces on
/// top of the cancel discipline.
const KIND_IDLE: u64 = 0;
const KIND_STALL: u64 = 1;
const GEN_MASK: u64 = 0x7fff_ffff;

fn timer_data(kind: u64, slot: usize, gen: u64) -> u64 {
    (kind << 63) | ((gen & GEN_MASK) << 32) | (slot as u64 & 0xffff_ffff)
}

fn timer_parts(data: u64) -> (u64, usize, u64) {
    (
        data >> 63,
        (data & 0xffff_ffff) as usize,
        (data >> 32) & GEN_MASK,
    )
}

struct Shard {
    id: usize,
    control: Arc<Control>,
    poller: Poller,
    timers: TimerWheel,
    /// Connection slab; slot `s` is registered under `Token(s + 1)`.
    conns: Vec<Option<Conn>>,
    /// Slots available for fresh connections.
    free: Vec<usize>,
    /// Slots freed during the current loop pass; merged into `free` at the
    /// end of the pass (delayed reuse, see the module docs).
    freed: Vec<usize>,
    next_gen: u64,
    listener: Option<TcpListener>,
    drain_seen: bool,
}

impl Shard {
    fn new(id: usize, poller: Poller, listener: TcpListener, control: Arc<Control>) -> Shard {
        Shard {
            id,
            control,
            poller,
            timers: TimerWheel::new(512, Duration::from_millis(20)),
            conns: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
            next_gen: 0,
            listener: Some(listener),
            drain_seen: false,
        }
    }

    fn run(mut self) {
        let registered = match self.listener.as_ref() {
            Some(listener) => self
                .poller
                .register(listener, LISTENER, Interest::READABLE)
                .is_ok(),
            None => false,
        };
        if !registered {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            let timeout = self.poll_timeout();
            if self.poller.poll(&mut events, timeout).is_err() {
                break;
            }
            self.control
                .rmetrics
                .poll_cycles
                .fetch_add(1, Ordering::Relaxed);

            self.take_completions();
            for event in &events {
                self.on_event(*event);
            }
            self.timers.advance(Instant::now(), &mut fired);
            for data in fired.drain(..) {
                self.on_timer(data);
            }
            if self.control.draining() && self.drain_step() {
                break;
            }
            self.free.append(&mut self.freed);
        }
        self.cleanup();
    }

    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let timers = self.timers.next_timeout(now);
        if !self.control.draining() {
            return timers;
        }
        // Draining: wake at the grace deadline (to stop accepting) and
        // keep a short safety tick while in-flight work finishes.
        let grace = self.control.grace_deadline().saturating_duration_since(now);
        let cap = grace.min(Duration::from_millis(250));
        Some(timers.map_or(cap, |t| t.min(cap)))
    }

    // -- completions --

    fn take_completions(&mut self) {
        let completions = {
            let mut mailbox = self.control.completions[self.id]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *mailbox)
        };
        for completion in completions {
            self.finish(completion);
        }
    }

    fn finish(&mut self, completion: Completion) {
        let Completion {
            slot,
            gen,
            response,
        } = completion;
        let live = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.gen == gen && conn.phase == Phase::Dispatched);
        if !live {
            return; // the connection died mid-flight; drop the response
        }
        self.control.state.metrics.record_status(response.status);
        let draining = self.control.draining();
        let close_requested = self.conns[slot]
            .as_ref()
            .is_some_and(|conn| conn.close_after_response);
        self.send_response(slot, &response, !close_requested && !draining);
    }

    // -- events --

    fn on_event(&mut self, event: Event) {
        if event.token == LISTENER {
            self.accept_ready();
            return;
        }
        let slot = event.token.0 - 1;
        let Some(phase) = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|conn| conn.phase)
        else {
            return; // freed earlier in this pass
        };
        match phase {
            Phase::Reading => {
                if event.readable || event.closed {
                    let eof = match self.conns[slot].as_mut() {
                        Some(conn) => conn.fill() == Filled::Eof,
                        None => return,
                    };
                    self.consume_buffer(slot, eof);
                }
            }
            Phase::Writing => {
                if event.writable || event.closed {
                    self.drive_write(slot);
                }
            }
            Phase::Dispatched => {
                // Interest is muted; only errors/hangups surface. The
                // worker's completion will miss the generation and be
                // dropped.
                if event.closed {
                    self.close(slot);
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.admit(stream),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.control
            .state
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let open = self
            .control
            .rmetrics
            .open_connections
            .load(Ordering::Relaxed);
        if open >= self.control.config.max_connections as u64 {
            self.control
                .state
                .metrics
                .rejected_429
                .fetch_add(1, Ordering::Relaxed);
            refuse(
                stream,
                &Response::error(429, "server is at connection capacity")
                    .with_header("Retry-After", "1"),
            );
            return;
        }
        let Ok(mut conn) = Conn::new(stream) else {
            return;
        };
        self.next_gen += 1;
        conn.gen = self.next_gen;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self
            .poller
            .register(conn.stream(), Token(slot + 1), Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.control
            .rmetrics
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        self.update_read_timers(slot);
    }

    // -- request processing --

    /// Assembles and processes every complete request already buffered.
    /// Stops when the connection leaves `Reading` (dispatched, mid-write
    /// backpressure, or closed).
    fn consume_buffer(&mut self, slot: usize, eof: bool) {
        loop {
            let reading = self.conns[slot]
                .as_ref()
                .is_some_and(|conn| conn.phase == Phase::Reading);
            if !reading {
                return;
            }
            let parsed = match self.conns[slot].as_mut() {
                Some(conn) => conn.next_request(&self.control.config.http_limits),
                None => return,
            };
            match parsed {
                Ok(Some(request)) => self.process_request(slot, request),
                Ok(None) => break,
                Err(BadRequest(message)) => {
                    let status = if message.contains("too large") {
                        431
                    } else {
                        400
                    };
                    self.control.state.metrics.record_status(status);
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.discard_pending();
                    }
                    let response = Response::error(status, &message);
                    self.send_response(slot, &response, false);
                    return;
                }
            }
        }
        // Still in Reading with no complete request buffered.
        if eof {
            // A half-closing client has sent everything it ever will.
            self.close(slot);
            return;
        }
        self.update_read_timers(slot);
    }

    fn process_request(&mut self, slot: usize, request: Request) {
        let control = Arc::clone(&self.control);
        control
            .state
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        control.rmetrics.shard_requests[self.id].fetch_add(1, Ordering::Relaxed);

        if control.draining() {
            let response = Response::error(503, "server is shutting down");
            control.state.metrics.record_status(response.status);
            self.send_response(slot, &response, false);
            return;
        }

        let close_requested = self.conns[slot]
            .as_ref()
            .is_some_and(|conn| conn.close_after_response);
        match handlers::route(&control.state, &request) {
            Routed::Done(response) => {
                control.state.metrics.record_status(response.status);
                self.send_response(slot, &response, !close_requested);
            }
            Routed::Dispatch(endpoint) => {
                let mut queue = control.lock_queue();
                if queue.len() >= control.config.queue_capacity {
                    drop(queue);
                    control
                        .state
                        .metrics
                        .rejected_429
                        .fetch_add(1, Ordering::Relaxed);
                    // Admission rejections skip `record_status`: they
                    // never reach a worker, and `rejected_429` counts them.
                    let response = Response::error(429, "server is at capacity")
                        .with_header("Retry-After", "1");
                    self.send_response(slot, &response, !close_requested);
                    return;
                }
                let Some(gen) = self.conns[slot].as_ref().map(|conn| conn.gen) else {
                    return;
                };
                queue.push_back(Job {
                    shard: self.id,
                    slot,
                    gen,
                    endpoint,
                    body: request.body,
                });
                drop(queue);
                control
                    .rmetrics
                    .dispatch_queue_depth
                    .fetch_add(1, Ordering::Relaxed);
                control.available.notify_one();
                self.clear_timers(slot);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.phase = Phase::Dispatched;
                }
                let _ = self.poller.reregister(Token(slot + 1), Interest::NONE);
            }
        }
    }

    // -- responses --

    fn send_response(&mut self, slot: usize, response: &Response, keep_alive: bool) {
        let bytes = response.serialize(keep_alive);
        self.clear_timers(slot);
        match self.conns[slot].as_mut() {
            Some(conn) => conn.start_response(bytes, !keep_alive),
            None => return,
        }
        self.drive_write(slot);
    }

    fn drive_write(&mut self, slot: usize) {
        let outcome = match self.conns[slot].as_mut() {
            Some(conn) => conn.write_step(),
            None => return,
        };
        match outcome {
            WriteOutcome::Done => {
                let close = self.conns[slot]
                    .as_ref()
                    .is_none_or(|conn| conn.close_after_response);
                if close {
                    self.close(slot);
                } else {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.rearm();
                    }
                    let _ = self.poller.reregister(Token(slot + 1), Interest::READABLE);
                    // Pipelined requests already buffered will not trigger
                    // another readiness event; process them now.
                    self.consume_buffer(slot, false);
                }
            }
            WriteOutcome::NeedWritable => {
                let _ = self.poller.reregister(Token(slot + 1), Interest::WRITABLE);
            }
            WriteOutcome::Error => self.close(slot),
        }
    }

    // -- timers --

    fn update_read_timers(&mut self, slot: usize) {
        let config = &self.control.config;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let gen = conn.gen;
        if conn.has_partial_request() {
            if let Some(key) = conn.idle_timer.take() {
                self.timers.cancel(key);
            }
            if conn.stall_timer.is_none() {
                let key = self
                    .timers
                    .insert(config.request_stall, timer_data(KIND_STALL, slot, gen));
                conn.stall_timer = Some(key);
            }
        } else {
            if let Some(key) = conn.stall_timer.take() {
                self.timers.cancel(key);
            }
            if conn.idle_timer.is_none() {
                let key = self
                    .timers
                    .insert(config.keep_alive_idle, timer_data(KIND_IDLE, slot, gen));
                conn.idle_timer = Some(key);
            }
        }
    }

    fn clear_timers(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if let Some(key) = conn.idle_timer.take() {
            self.timers.cancel(key);
        }
        if let Some(key) = conn.stall_timer.take() {
            self.timers.cancel(key);
        }
    }

    fn on_timer(&mut self, data: u64) {
        let (kind, slot, gen_bits) = timer_parts(data);
        let evict;
        match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(conn) if conn.gen & GEN_MASK == gen_bits => {
                if kind == KIND_IDLE {
                    evict = conn.phase == Phase::Reading
                        && conn.idle_timer.is_some()
                        && !conn.has_partial_request();
                    conn.idle_timer = None;
                } else {
                    evict = conn.phase == Phase::Reading
                        && conn.stall_timer.is_some()
                        && conn.has_partial_request();
                    conn.stall_timer = None;
                }
            }
            _ => return,
        }
        if evict {
            let counter = if kind == KIND_IDLE {
                &self.control.rmetrics.idle_evictions
            } else {
                &self.control.rmetrics.stall_evictions
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.close(slot);
        }
    }

    // -- teardown --

    fn close(&mut self, slot: usize) {
        self.clear_timers(slot);
        let taken = self.conns.get_mut(slot).and_then(Option::take);
        if taken.is_some() {
            self.poller.deregister(Token(slot + 1));
            self.control
                .rmetrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.freed.push(slot);
        }
    }

    /// One drain pass; `true` once this shard is finished. Sequence:
    /// close idle keep-alive connections immediately, keep accepting (and
    /// answering `503`) until the grace deadline, then stop accepting,
    /// reap readers, and wait for dispatched/writing work to finish.
    fn drain_step(&mut self) -> bool {
        if !self.drain_seen {
            self.drain_seen = true;
            for slot in 0..self.conns.len() {
                let idle = self.conns[slot].as_ref().is_some_and(|conn| {
                    conn.phase == Phase::Reading && !conn.has_partial_request()
                });
                if idle {
                    self.close(slot);
                }
            }
        }
        if Instant::now() < self.control.grace_deadline() {
            return false;
        }
        if self.listener.take().is_some() {
            self.poller.deregister(LISTENER);
        }
        for slot in 0..self.conns.len() {
            let reading = self.conns[slot]
                .as_ref()
                .is_some_and(|conn| conn.phase == Phase::Reading);
            if reading {
                self.close(slot);
            }
        }
        self.conns.iter().flatten().count() == 0
    }

    /// Closes everything still registered so the poller ends empty — no
    /// leaked registrations, whatever path ended the loop.
    fn cleanup(&mut self) {
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
        if self.listener.take().is_some() {
            self.poller.deregister(LISTENER);
        }
        debug_assert!(self.poller.is_empty(), "leaked poller registrations");
    }
}

/// Best-effort one-response refusal on a just-accepted connection.
fn refuse(stream: TcpStream, response: &Response) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = io::Write::write_all(&mut stream, &response.serialize(false));
}
