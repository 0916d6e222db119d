//! The serving side of a session: the sketch snapshot, daemon restarts,
//! the query mix, rollouts and the byte-identity checks against an
//! in-process engine.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use imm_diffusion::DiffusionModel;
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::BitSet;
use imm_serve::protocol::{self, FrameRead, Request, Response};
use imm_serve::{Listen, Server, ServerConfig, ServerHandle};
use imm_service::{Query, QueryResponse, RefreshStats, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use imm_store::Store;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Shards every daemon splits its index into.
pub const SHARDS: usize = 2;

/// Query classes of the read mix, in the order of [`KIND_NAMES`].
pub const KIND_NAMES: [&str; 4] = ["topk", "spread", "marginal", "audience_topk"];

/// Vertices in each audience-masked Top-K query.
const AUDIENCE: usize = 64;

/// Sample a provenance-carrying sketch of `theta` sets and write it as a
/// snapshot at `path`.
pub fn write_sketch(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    seed: u64,
    theta: usize,
    threads: usize,
    path: &Path,
) -> SketchIndex {
    let spec = SampleSpec::new(model, seed);
    let index = SketchIndex::sample(graph, weights, spec, theta, threads, "repo-bench")
        .expect("a generated graph always samples");
    index.save_to_path(path).expect("the snapshot directory is writable");
    index
}

/// The read-mix query stream: a quarter each of plain Top-K (k 1–32, so
/// repeats hit the response cache), Spread, Marginal and audience-masked
/// Top-K over a fresh 64-vertex audience (always a cache miss). The classes
/// come in shuffled blocks of four, so every stretch of the stream holds
/// each class a quarter of the time, give or take one query: a phase that
/// ends early does not leave a seed with more or fewer costly queries.
pub struct QueryStream {
    rng: SmallRng,
    nodes: usize,
    block: Vec<u8>,
}

impl QueryStream {
    /// The stream seeded by `seed` over `nodes` vertices.
    pub fn new(seed: u64, nodes: usize) -> Self {
        QueryStream { rng: SmallRng::seed_from_u64(seed), nodes, block: Vec::new() }
    }

    /// The next query and its class (index into [`KIND_NAMES`]).
    pub fn next_query(&mut self) -> (Query, u8) {
        if self.block.is_empty() {
            self.block = vec![0, 1, 2, 3];
            self.block.shuffle(&mut self.rng);
        }
        let kind = self.block.pop().expect("the block was just refilled");
        let n = self.nodes as u32;
        let rng = &mut self.rng;
        let query = match kind {
            0 => Query::top_k(rng.gen_range(1..33)),
            1 => Query::Spread {
                seeds: (0..rng.gen_range(1..5)).map(|_| rng.gen_range(0..n)).collect(),
            },
            2 => Query::Marginal {
                seeds: (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..n)).collect(),
                candidate: rng.gen_range(0..n),
            },
            _ => {
                let members: Vec<usize> =
                    (0..AUDIENCE).map(|_| rng.gen_range(0..self.nodes)).collect();
                Query::audience_top_k(
                    rng.gen_range(1..9),
                    BitSet::from_iter_with_capacity(self.nodes, members),
                )
            }
        };
        (query, kind)
    }

    /// The next `count` queries and their classes.
    pub fn take(&mut self, count: usize) -> (Vec<Query>, Vec<u8>) {
        (0..count).map(|_| self.next_query()).unzip()
    }
}

/// Delta texts of `count` rollouts, each inserting `edges` random edges
/// with weights in `[lo, hi)`.
pub fn delta_texts(
    seed: u64,
    nodes: usize,
    count: usize,
    edges: usize,
    lo: f32,
    hi: f32,
) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut delta = GraphDelta::new();
            for _ in 0..edges {
                let src = rng.gen_range(0..nodes as u32);
                let mut dst = rng.gen_range(0..nodes as u32);
                if dst == src {
                    dst = (dst + 1) % nodes as u32;
                }
                delta = delta.insert(src, dst, rng.gen_range(lo..hi));
            }
            delta.to_text()
        })
        .collect()
}

/// One request/response exchange on a blocking connection.
pub fn call(stream: &mut UnixStream, request: &Request) -> io::Result<Response> {
    protocol::write_frame(stream, &protocol::encode_request(request))?;
    match protocol::read_frame(stream, protocol::DEFAULT_MAX_FRAME_LEN) {
        Ok(FrameRead::Frame(payload)) => protocol::decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        Ok(_) => Err(io::ErrorKind::UnexpectedEof.into()),
        Err(e) => Err(io::Error::other(e.to_string())),
    }
}

/// A running daemon and the index it started from.
pub struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    /// The index the daemon was started over.
    pub index: Arc<ShardedIndex>,
    /// The connection the first query went out on.
    pub client: UnixStream,
}

/// Time spent in each step of one restart, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Restart {
    /// `Store::open`.
    pub open_ms: f64,
    /// `ShardedIndex::from_index`.
    pub partition_ms: f64,
    /// `Server::start`.
    pub start_ms: f64,
    /// Connect, first Top-K, answer.
    pub first_query_ms: f64,
    /// Open to first answer.
    pub ttfq_ms: f64,
}

/// Open the snapshot, partition it, start a daemon on `socket` and answer
/// one Top-K: the path a restarted daemon takes to its first answer.
pub fn restart(
    snapshot: &Path,
    socket: &Path,
    live: (CsrGraph, EdgeWeights),
    threads: usize,
    tracer: &mut Tracer,
    request: u64,
) -> io::Result<(Daemon, Restart)> {
    let _ = std::fs::remove_file(socket);
    let root = tracer.enter("serve.restart", request);
    let t = Instant::now();
    let opened = tracer.span("store.open", request, || Store::open(snapshot));
    let opened = opened.map_err(|e| io::Error::other(e.to_string()))?;
    let open_ms = ms(t);
    let t_partition = Instant::now();
    let index =
        tracer.span("shard.from_index", request, || ShardedIndex::from_index(opened.index, SHARDS));
    let index = Arc::new(index.map_err(|e| io::Error::other(e.to_string()))?);
    let partition_ms = ms(t_partition);
    let t_start = Instant::now();
    let mut config = ServerConfig::new(Listen::Unix(socket.to_path_buf()));
    config.threads = threads;
    let handle = tracer.span("serve.server_start", request, || {
        Server::start(Arc::clone(&index), Some(live), config, String::new)
    })?;
    let start_ms = ms(t_start);
    let t_query = Instant::now();
    let first = tracer.span("serve.first_query", request, || -> io::Result<_> {
        let mut client = UnixStream::connect(socket)?;
        let answer = call(&mut client, &Request::Batch(vec![Query::top_k(10)]))?;
        Ok((client, answer))
    });
    let first_query_ms = ms(t_query);
    let ttfq_ms = ms(t);
    tracer.exit(root);
    let (client, answer) = match first {
        Ok(first) => first,
        Err(e) => {
            handle.stop();
            handle.join().map_err(|_| io::Error::other("the accept loop panicked"))?;
            return Err(e);
        }
    };
    let daemon = Daemon { handle, socket: socket.to_path_buf(), index, client };
    if !all_ok(&answer) {
        daemon.stop()?;
        return Err(io::Error::other("the first query after a restart was not answered"));
    }
    Ok((daemon, Restart { open_ms, partition_ms, start_ms, first_query_ms, ttfq_ms }))
}

impl Daemon {
    /// A fresh connection to the daemon.
    pub fn connect(&self) -> io::Result<UnixStream> {
        UnixStream::connect(&self.socket)
    }

    /// Ask the daemon to exit and wait until it has.
    pub fn stop(mut self) -> io::Result<()> {
        let ack = call(&mut self.client, &Request::Shutdown);
        drop(self.client);
        self.handle.join().map_err(|_| io::Error::other("the accept loop panicked"))?;
        match ack? {
            Response::ShuttingDown => Ok(()),
            _ => Err(io::Error::other("the daemon did not acknowledge shutdown")),
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Whether `response` is a batch whose every entry was answered.
pub fn all_ok(response: &Response) -> bool {
    matches!(response, Response::Batch(outcomes) if outcomes.iter().all(Result::is_ok))
}

/// Send `battery` as one batch and compare every answer with the
/// in-process engine's, byte for byte.
pub fn parity(
    client: &mut UnixStream,
    local: &ShardedEngine,
    battery: &[Query],
    threads: usize,
) -> io::Result<bool> {
    let expected = local.execute_batch(battery, threads);
    Ok(match call(client, &Request::Batch(battery.to_vec()))? {
        Response::Batch(answers) => {
            answers.len() == expected.len()
                && answers.iter().zip(&expected).all(|(got, want)| got.as_ref() == Ok(want))
        }
        _ => false,
    })
}

/// The in-process mirror of the daemon's index: replays each rollout's
/// delta so the parity battery can be checked after the last one.
pub struct Mirror {
    /// The mirrored index.
    pub index: Arc<ShardedIndex>,
    live: (CsrGraph, EdgeWeights),
}

impl Mirror {
    /// A mirror of `index` over the live graph pair it was sampled from.
    pub fn new(index: Arc<ShardedIndex>, live: (CsrGraph, EdgeWeights)) -> Self {
        Mirror { index, live }
    }

    /// Apply one delta text; returns what the refresh did.
    pub fn apply(&mut self, text: &str) -> io::Result<RefreshStats> {
        let delta = GraphDelta::parse_text(text).map_err(|e| io::Error::other(e.to_string()))?;
        let (next, graph, weights, stats) = self
            .index
            .rebuilt_with_delta(&self.live.0, &self.live.1, &delta)
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.index = Arc::new(next);
        self.live = (graph, weights);
        Ok(stats)
    }
}

/// Replay delta texts through `SketchIndex::apply_delta` on a freshly
/// opened copy of the snapshot; returns each refresh's time in ms.
pub fn replay_refresh(
    snapshot: &Path,
    live: (CsrGraph, EdgeWeights),
    texts: &[String],
    tracer: &mut Tracer,
) -> io::Result<Vec<f64>> {
    let mut index = Store::open(snapshot).map_err(|e| io::Error::other(e.to_string()))?.index;
    let (mut graph, mut weights) = live;
    let mut times = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        let delta = GraphDelta::parse_text(text).map_err(|e| io::Error::other(e.to_string()))?;
        let t = Instant::now();
        let refreshed = tracer
            .span("service.apply_delta", i as u64, || index.apply_delta(&graph, &weights, &delta));
        times.push(ms(t));
        let (g, w, _) = refreshed.map_err(|e| io::Error::other(e.to_string()))?;
        graph = g;
        weights = w;
    }
    Ok(times)
}

/// Replay `queries` in-process on an uncached engine over `index`; returns
/// per-class latencies in µs.
pub fn replay_in_process(
    index: Arc<ShardedIndex>,
    queries: &[Query],
    kinds: &[u8],
    threads: usize,
    tracer: &mut Tracer,
) -> [Vec<f64>; 4] {
    let engine = ShardedEngine::with_options(index, threads, 0);
    let mut per_kind: [Vec<f64>; 4] = Default::default();
    for (i, (query, &kind)) in queries.iter().zip(kinds).enumerate() {
        let t = Instant::now();
        let answer: QueryResponse =
            tracer.span("shard.execute_uncached", i as u64, || engine.execute_uncached(query));
        per_kind[kind as usize].push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(answer);
    }
    per_kind
}
