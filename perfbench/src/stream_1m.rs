//! `stream_1m`: the `StreamSpec` million-gate program (800 blocks x 24
//! qubits) fed as text chunks from the block generator through
//! `Engine::compile_streamed` with the default `StreamOptions`. The
//! workload seed cuts the generator's text at seeded byte offsets, so
//! chunk boundaries fall mid-statement; the program, and so its digest,
//! stay the frozen ones.

use crate::checks::{self, MILLION_DIGEST};
use crate::{mix, ms, repeat_setup, stats, trace::Tracer, Args, Outcome};
use caqr::CancelToken;
use caqr_benchmarks::stream::{StreamSpec, TextChunks};
use caqr_circuit::qasm::{from_qasm, QasmStmt};
use caqr_engine::Engine;
use caqr_stream::{
    schedule_circuit, NullSink, StreamDigest, StreamOptions, StreamSession, StreamingQasmParser,
    WindowScheduler,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// The generator seed whose million-gate digest is pinned.
const PROGRAM_SEED: u64 = caqr_bench::EXPERIMENT_SEED;

/// Chunk sizes are drawn uniformly from this range (bytes).
const CHUNK_BYTES: std::ops::RangeInclusive<usize> = (16 << 10)..=(48 << 10);

/// The generator's text, re-cut into seeded chunk sizes. Holds at most
/// one block plus one chunk.
struct Rechunk {
    blocks: TextChunks,
    buf: Vec<u8>,
    rng: ChaCha8Rng,
}

impl Rechunk {
    fn new(spec: &StreamSpec, seed: u64) -> Rechunk {
        Rechunk {
            blocks: spec.text_chunks(),
            buf: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Iterator for Rechunk {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let want = self.rng.gen_range(CHUNK_BYTES);
        while self.buf.len() < want {
            let Some(block) = self.blocks.next() else {
                break;
            };
            self.buf.extend_from_slice(block.as_bytes());
        }
        if self.buf.is_empty() {
            return None;
        }
        let rest = self.buf.split_off(want.min(self.buf.len()));
        Some(std::mem::replace(&mut self.buf, rest))
    }
}

/// Times each chunk of a pass: its generation, and its feed (from handing
/// it out to being asked for the next one).
struct ChunkClock<'a> {
    chunks: Rechunk,
    handed_out: Option<Instant>,
    /// Per chunk: (generate ms, feed ms).
    times: &'a mut Vec<(f64, f64)>,
}

impl Iterator for ChunkClock<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        if let Some(at) = self.handed_out.take() {
            if let Some(last) = self.times.last_mut() {
                last.1 = ms(at.elapsed());
            }
        }
        let start = Instant::now();
        let chunk = self.chunks.next();
        if chunk.is_some() {
            self.times.push((ms(start.elapsed()), 0.0));
            self.handed_out = Some(Instant::now());
        }
        chunk
    }
}

/// Set-up check: the streamed smoke spec must equal its batch twin.
fn smoke_check(seed: u64) -> Result<(), String> {
    let spec = StreamSpec::smoke(seed);
    let streamed = Engine::compile_streamed(
        Rechunk::new(&spec, seed),
        StreamOptions::default(),
        &CancelToken::new(),
    )
    .map_err(|e| format!("smoke spec did not stream: {e}"))?;
    let batch = from_qasm(&spec.text()).map_err(|e| format!("smoke spec did not parse: {e}"))?;
    let (twin, _) = schedule_circuit(&batch, StreamOptions::default(), NullSink)
        .map_err(|e| format!("smoke batch twin failed: {e}"))?;
    if streamed.report != twin {
        return Err("streamed smoke digest or metrics differ from the batch twin".into());
    }
    Ok(())
}

struct PassResult {
    wall: Duration,
    report: Result<caqr_stream::StreamReport, String>,
}

fn untraced_pass(spec: &StreamSpec, seed: u64, times: &mut Vec<(f64, f64)>) -> PassResult {
    let start = Instant::now();
    let chunks = ChunkClock {
        chunks: Rechunk::new(spec, seed),
        handed_out: None,
        times,
    };
    let outcome = Engine::compile_streamed(chunks, StreamOptions::default(), &CancelToken::new());
    PassResult {
        wall: start.elapsed(),
        report: outcome.map(|o| o.report).map_err(|e| e.to_string()),
    }
}

/// A traced pass: every chunk goes through a `StreamSession` (the
/// end-to-end path) and, separately, through the parser, the window
/// scheduler and the digest, each in its own span.
fn traced_pass(spec: &StreamSpec, seed: u64, t: &mut Tracer) -> PassResult {
    let start = Instant::now();
    let opts = StreamOptions::default();
    let pass = t.open("stream.pass");
    let mut sched = WindowScheduler::new(opts.window);
    let mut session = StreamSession::new(opts, NullSink);
    let mut parser = StreamingQasmParser::new();
    let mut digest = StreamDigest::new();
    let (mut stmts, mut emitted) = (Vec::new(), Vec::new());
    let mut chunks = Rechunk::new(spec, seed);
    let result = (|| -> Result<caqr_stream::StreamReport, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        while let Some(chunk) = t.span("stream.generate", || chunks.next()) {
            t.span("stream.session", || session.feed(&chunk))
                .map_err(|e| err(&e))?;
            t.span("stream.parse", || parser.feed(&chunk, &mut stmts))
                .map_err(|e| err(&e))?;
            t.span("stream.window", || {
                push_all(&mut sched, &mut stmts, &mut emitted)
            })?;
            t.span("stream.digest", || {
                emitted.drain(..).for_each(|i| digest.absorb(&i))
            });
        }
        let (report, _) = t
            .span("stream.session", || session.finish())
            .map_err(|e| err(&e))?;
        t.span("stream.parse", || parser.finish(&mut stmts))
            .map_err(|e| err(&e))?;
        t.span("stream.window", || {
            push_all(&mut sched, &mut stmts, &mut emitted)?;
            sched.finish(&mut emitted);
            Ok::<_, String>(())
        })?;
        t.span("stream.digest", || {
            emitted.drain(..).for_each(|i| digest.absorb(&i))
        });
        Ok(report)
    })();
    t.close(pass);
    PassResult {
        wall: start.elapsed(),
        report: result,
    }
}

fn push_all(
    sched: &mut WindowScheduler,
    stmts: &mut Vec<QasmStmt>,
    emitted: &mut Vec<caqr_circuit::Instruction>,
) -> Result<(), String> {
    for stmt in stmts.drain(..) {
        if let QasmStmt::Instr(instr) = stmt {
            sched.push(instr, emitted).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (smoke, setup_s) = repeat_setup(5, || smoke_check(args.seed));
    out.setup_s = setup_s;
    out.attempted += 1;
    if let Err(message) = smoke {
        out.fail(message);
    }

    // Every pass streams the same chunks (one seeded cut per run), so each
    // chunk counts with its fastest time over the passes (see
    // `stats::per_unit_fastest`).
    let spec = StreamSpec::million_gate(PROGRAM_SEED);
    let chunk_seed = mix(args.seed, 0, 0);
    let mut times: Vec<Vec<(f64, f64)>> = Vec::new();
    // A traced run alternates untraced and traced passes, so that the trace
    // overhead compares passes taken under the same host conditions.
    let mut tracer = args.trace.then(Tracer::new);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut passes = Vec::new();
    loop {
        let traced = passes.len() % 2 == 1;
        passes.push(match tracer.as_mut().filter(|_| traced) {
            Some(t) => {
                let end_to_end =
                    |t: &Tracer| t.self_ms("stream.session") + t.self_ms("stream.generate");
                let before = end_to_end(t);
                let pass = traced_pass(&spec, chunk_seed, t);
                traced_ms.push(end_to_end(t) - before);
                pass
            }
            None => {
                crate::pin_repetition(times.len());
                times.push(Vec::new());
                let pass = untraced_pass(&spec, chunk_seed, times.last_mut().expect("just pushed"));
                untraced_ms.push(ms(pass.wall));
                pass
            }
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut last = None;
    for pass in &passes {
        out.attempted += 1;
        match &pass.report {
            Err(message) => out.fail(format!("million-gate stream failed: {message}")),
            Ok(report) => {
                if report.metrics.gates_in as usize != spec.gate_count() {
                    out.fail(format!(
                        "streamed {} gates, not {}",
                        report.metrics.gates_in,
                        spec.gate_count()
                    ));
                } else if let Err(message) =
                    checks::check_digest(&report.digest.to_string(), MILLION_DIGEST)
                {
                    // The traced pass digests through the session too, so
                    // both modes check the same value.
                    out.fail(message);
                }
                last = Some(*report);
            }
        }
    }

    // A pass is its chunks (generation and feed each) plus what follows
    // the last feed (`finish`): the program's rate is its gates over the sum
    // of those units' fastest times.
    let units: Vec<Vec<f64>> = times
        .iter()
        .zip(&untraced_ms)
        .map(|(chunks, wall)| {
            let mut units: Vec<f64> = chunks.iter().map(|(g, f)| g + f).collect();
            units.push(wall - units.iter().sum::<f64>());
            units
        })
        .collect();
    let pass_ms: f64 = stats::per_unit_fastest(&units).iter().sum();
    out.throughput_per_s = spec.gate_count() as f64 / (pass_ms / 1e3);
    let feeds: Vec<Vec<f64>> = times
        .iter()
        .map(|chunks| chunks.iter().map(|&(_, feed)| feed).collect())
        .collect();
    out.latency_p50_ms = stats::median(&stats::per_unit_fastest(&feeds));
    // The tail is over every feed measured, as a caller sees it. It is the
    // 95th percentile: on the measuring host more than 1% of feeds can land
    // in a stall, which moved the 99th by up to half between runs.
    out.latency_tail_ms = stats::percentile(&feeds.concat(), 0.95);
    out.output_qubits = last.map_or(0.0, |r| r.metrics.wires as f64);
    out.named = vec![("stream_gates_per_s", out.throughput_per_s, "gates/s")];

    if let Some(t) = tracer {
        let n = traced_ms.len() as f64;
        let per_pass = |name: &str| t.self_ms(name) / n;
        let session = per_pass("stream.session");
        let generate_ms = per_pass("stream.generate");
        let overhead = stats::lower_quartile(&traced_ms) / stats::lower_quartile(&untraced_ms);
        out.layer("trace.overhead_pct", 100.0 * (overhead - 1.0));
        out.layer("stream.generate_ms", generate_ms);
        out.layer("stream.parse_ms", per_pass("stream.parse"));
        out.layer("stream.window_ms", per_pass("stream.window"));
        out.layer("stream.digest_ms", per_pass("stream.digest"));
        out.layer("stream.session_ms", session);
        let probes =
            per_pass("stream.parse") + per_pass("stream.window") + per_pass("stream.digest");
        out.layer("stream.peephole_self_ms", (session - probes).max(0.0));
        if let Some(report) = last {
            let m = report.metrics;
            out.layer("stream.gates_in", m.gates_in as f64);
            out.layer("stream.resets_inserted", m.resets_inserted as f64);
            out.layer("stream.cones_closed", m.cones_closed as f64);
            out.layer("stream.peak_window", m.peak_window as f64);
            out.layer("stream.peak_live", m.peak_live as f64);
            out.layer("stream.chunks", m.chunks as f64);
        }
        out.tracer = Some(t);
    }
    out
}
