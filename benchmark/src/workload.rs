//! The four workloads: what each one builds in set-up, its seeded op
//! list with a reference answer per op, and how one op is executed,
//! plainly for the timed run and layer by layer for the traced run.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::layers::{self, Corpus, Server, Store, TraceSink, SCHEMES};
use crate::stats::{Fnv, Rng};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "fragment-read",
    "value-read",
    "load-roundtrip",
    "serve-mixed",
];

/// Literal-carrying templates are instantiated once per round, each round
/// with the next literal of a seeded pool this long. `serve-mixed` has
/// one store and cheap ops, so more rounds make its pass a second long.
const ROUNDS: usize = 16;
const SERVE_ROUNDS: usize = 64;

/// The name every load-roundtrip store loads its document under.
const DOC: &str = "doc";

/// The writer's pause between load+remove pairs on `serve-mixed`, in ms:
/// drawn uniformly from this range (20 ms on average), so its commits do
/// not fall on the same ops of every pass.
const WRITER_THINK_MS: (u64, u64) = (10, 30);

/// What an op's output is reduced to for checking: a hash and a count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    pub hash: u64,
    pub items: u64,
}

/// What an executed op returned, before it is reduced to an [`Answer`]
/// (which happens after the clock stops).
pub enum Output {
    /// Published items of a query.
    Items(Vec<String>),
    /// A `POST /query` response body: the items, one per line.
    Body(String),
    /// A reconstructed document.
    Text(String),
    /// A count: matches, nodes loaded, rows removed.
    Number(u64),
    /// Nothing to compare (a checkpoint).
    Done,
}

impl Output {
    pub fn answer(&self) -> Answer {
        let mut h = Fnv::default();
        let items = match self {
            // Hashed as the serve layer frames them, so the same
            // reference checks an in-process answer and an HTTP body.
            Output::Items(items) => {
                for item in items {
                    h.write(item.as_bytes());
                    h.write(b"\n");
                }
                items.len() as u64
            }
            Output::Body(body) => {
                h.write(body.as_bytes());
                body.bytes().filter(|b| *b == b'\n').count() as u64
            }
            Output::Text(text) => {
                h.write(text.as_bytes());
                1
            }
            Output::Number(n) => {
                h.write(&n.to_le_bytes());
                *n
            }
            Output::Done => 0,
        };
        Answer { hash: h.0, items }
    }
}

/// The product call an op makes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    Run(String),
    Count(String),
    Load,
    Persist,
    Reconstruct,
    Remove,
    Http(String),
}

impl Call {
    fn describe(&self) -> String {
        match self {
            Call::Run(q) => format!("run {q}"),
            Call::Count(q) => format!("count {q}"),
            Call::Load => "load".into(),
            Call::Persist => "persist".into(),
            Call::Reconstruct => "reconstruct".into(),
            Call::Remove => "remove".into(),
            Call::Http(q) => format!("http {q}"),
        }
    }
}

/// One operation of the op list.
pub struct Op {
    /// Index into [`World::cells`]: the scheme × operation-template pair.
    pub cell: usize,
    /// Index of the store it runs on.
    pub store: usize,
    pub call: Call,
    /// What a correct execution answers.
    pub reference: Answer,
    /// Ops with the same non-empty key must answer identically whatever
    /// the scheme; set-up fails otherwise.
    agree: String,
}

struct Slot {
    store: Store,
    scheme: &'static str,
    corpus: usize,
    /// Opened empty over a WAL-on `MemBackend` (load-roundtrip), and
    /// reopened before every pass.
    roundtrip: bool,
}

/// What `serve-mixed` runs beside its store: the endpoint, and the
/// writer, a thread on a cloned handle doing `load_str` of one document
/// then `remove` of the previous one, with think time.
struct Serving {
    server: Server,
    addr: SocketAddr,
    stop_writer: Arc<AtomicBool>,
    writer: JoinHandle<WriterStats>,
}

/// What the writer did.
#[derive(Debug, Default)]
pub struct WriterStats {
    /// Latency of each load+remove pair, µs.
    pub pair_us: Vec<f64>,
    pub errors: u64,
    pub seconds: f64,
}

/// The sinks of a traced run: the benchmark's thread, and the server's
/// connection threads on `serve-mixed`.
pub struct Sinks {
    pub client: TraceSink,
    pub server: TraceSink,
}

/// Everything set-up builds for one workload.
pub struct World {
    pub name: &'static str,
    pub cells: Vec<String>,
    pub ops: Vec<Op>,
    corpora: Vec<Corpus>,
    slots: Vec<Slot>,
    /// The writer's document, the seed of its next think times, and the
    /// server's trace sink (`serve-mixed`).
    writer_doc: String,
    think_seed: u64,
    server_sink: Option<TraceSink>,
    serving: Option<Serving>,
    /// `503` answers seen (the server shed the request).
    pub shed: u64,
    /// What the writers of this world did, summed over restarts; `None`
    /// for a workload without one.
    pub writer: Option<WriterStats>,
    /// False once a server had to cancel an in-flight request to stop.
    pub clean_drain: bool,
}

/// Per-cell samples of every per-layer timing the traced run takes, and
/// the counts beside them.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// metric → cell → samples.
    pub samples: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
    pub counts: Counts,
}

/// Work the traced ops did, as counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Items published, and rows the main statements' operators produced.
    pub items: u64,
    pub rows_examined: u64,
    /// Documents loaded, their XML bytes, the bytes their tables and
    /// indexes hold afterwards, and the B-tree splits the loads caused.
    pub docs: u64,
    pub user_bytes: u64,
    pub stored_bytes: u64,
    pub btree_splits: u64,
}

impl LayerSamples {
    fn push(&mut self, metric: &'static str, cell: usize, value: f64) {
        self.samples
            .entry(metric)
            .or_default()
            .entry(cell)
            .or_default()
            .push(value);
    }
}

/// Run `f` inside a benchmark span; returns its value and duration in µs.
fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = layers::span(span);
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e6)
}

fn fill(template: &str, literal: u64) -> String {
    template.replace("{}", &literal.to_string())
}

/// A query template: cell label, whether it finishes with `count()`,
/// the text, and the range its literal (if any) is drawn from.
struct Template {
    label: &'static str,
    count: bool,
    text: &'static str,
    literal: Option<(u64, u64)>,
}

const fn template(label: &'static str, text: &'static str) -> Template {
    Template {
        label,
        count: false,
        text,
        literal: None,
    }
}

/// `fragment-read`: node-returning queries, so publishing does the work.
const FRAGMENT_TEMPLATES: [(usize, Template); 4] = [
    (0, template("D2", "/dblp/article[year = '2000']/title")),
    (
        0,
        template("D3", "/dblp/inproceedings[booktitle = 'ICDE']/author"),
    ),
    (1, template("person", "/site/people/person")),
    (
        1,
        template("open_auction", "/site/open_auctions/open_auction"),
    ),
];

/// `value-read`: values and counts, so publishing is bypassed. Literal
/// ranges are narrow so a template's cost does not depend on the draw.
const VALUE_TEMPLATES: [Template; 8] = [
    Template {
        literal: Some((0, 249)),
        ..template(
            "id-lookup",
            "/site/people/person[@id = 'person{}']/name/text()",
        )
    },
    template("chain-text", "/site/people/person/name/text()"),
    Template {
        count: true,
        ..template("desc-count", "//open_auction//increase")
    },
    Template {
        count: true,
        ..template("chain-count", "/site/regions/region/item/name")
    },
    Template {
        literal: Some((88, 92)),
        ..template(
            "price-range",
            "/site/regions/region/item[price > {}]/name/text()",
        )
    },
    Template {
        literal: Some((60, 64)),
        ..template(
            "nested-age",
            "/site/people/person[profile/age > {}]/name/text()",
        )
    },
    template("attr-values", "//item/@id"),
    Template {
        literal: Some((60, 64)),
        ..template(
            "flwor",
            "for $p in /site/people/person where $p/profile/age > {} \
             order by $p/name return $p/name/text()",
        )
    },
];

/// `serve-mixed`: three node-returning, two value, one FLWOR. None of
/// them names an element of the writer's `textheavy` documents.
const SERVE_TEMPLATES: [Template; 6] = [
    template("item-names", "/site/regions/region/item[price > 90]/name"),
    Template {
        literal: Some((0, 124)),
        ..template("person", "/site/people/person[@id = 'person{}']")
    },
    template(
        "open_auction",
        "/site/open_auctions/open_auction[initial > 40]",
    ),
    template("names-text", "/site/people/person/name/text()"),
    template("item-ids", "//item/@id"),
    template(
        "flwor",
        "for $p in /site/people/person where $p/profile/age > 60 \
         order by $p/name return $p/name",
    ),
];

impl World {
    /// Set-up for `workload`: corpus generation, store open, initial
    /// shred, the seeded op list, a reference answer for every op,
    /// server and writer start. `sinks` is given on the traced run only.
    pub fn build(workload: &str, seed: u64, sinks: Option<&Sinks>) -> Result<World, String> {
        let mut world = match workload {
            "fragment-read" => fragment_read(seed)?,
            "value-read" => value_read(seed)?,
            "load-roundtrip" => load_roundtrip(seed)?,
            "serve-mixed" => serve_mixed(seed)?,
            other => return Err(format!("unknown workload {other:?}")),
        };
        world.compute_references()?;
        if world.name == "serve-mixed" {
            // 11 entries of four 60-word paragraphs: a 16 KB document.
            world.writer_doc = layers::textheavy(11, seed).xml;
            world.think_seed = seed;
            world.server_sink = sinks.map(|s| s.server.clone());
            world.writer = Some(WriterStats::default());
            world.start_serving()?;
        }
        Ok(world)
    }

    fn empty(name: &'static str, corpora: Vec<Corpus>) -> World {
        World {
            name,
            cells: Vec::new(),
            ops: Vec::new(),
            corpora,
            slots: Vec::new(),
            writer_doc: String::new(),
            think_seed: 0,
            server_sink: None,
            serving: None,
            shed: 0,
            writer: None,
            clean_drain: true,
        }
    }

    /// A store of `scheme` for corpus `corpus`: an in-memory one with the
    /// corpus shredded into it, or for `roundtrip` an empty one over a
    /// WAL-on `MemBackend`.
    fn add_store(
        &mut self,
        scheme: &'static str,
        corpus: usize,
        roundtrip: bool,
    ) -> Result<usize, String> {
        let c = &self.corpora[corpus];
        let mut store = layers::open_store(scheme, c.dtd, roundtrip)?;
        if !roundtrip {
            layers::load_str(&mut store, c.name, &c.xml)
                .map_err(|e| format!("{scheme}: load {}: {e}", c.name))?;
        }
        self.slots.push(Slot {
            store,
            scheme,
            corpus,
            roundtrip,
        });
        Ok(self.slots.len() - 1)
    }

    /// Called before every pass, outside its timing, so that every pass
    /// does the same work. reldb heaps keep a tombstone per deleted row:
    /// a store that has loaded and removed a document twenty times is a
    /// larger and slower store than one that has done it once. So the
    /// load-roundtrip stores are reopened, and `serve-mixed` starts every
    /// pass on a freshly shredded store with a new server and writer.
    pub fn before_pass(&mut self) -> Result<(), String> {
        let serving = self.serving.is_some();
        self.stop_serving();
        for slot in self.slots.iter_mut().filter(|s| s.roundtrip || serving) {
            let corpus = &self.corpora[slot.corpus];
            slot.store = layers::open_store(slot.scheme, corpus.dtd, slot.roundtrip)?;
            if !slot.roundtrip {
                layers::load_str(&mut slot.store, corpus.name, &corpus.xml)?;
            }
        }
        if serving {
            self.start_serving()?;
        }
        Ok(())
    }

    fn add_cell(&mut self, label: String) -> usize {
        self.cells.push(label);
        self.cells.len() - 1
    }

    /// Execute every op once, in list order, and keep its answer as the
    /// reference; then require the answers a scheme must not change to
    /// be byte-identical across schemes.
    fn compute_references(&mut self) -> Result<(), String> {
        for i in 0..self.ops.len() {
            let output = match &self.ops[i].call {
                // Before the server is up: the same request in-process.
                Call::Http(query) => {
                    layers::run(&self.slots[self.ops[i].store].store, query, "ref")
                        .map(Output::Items)
                }
                _ => self.exec(i, "ref"),
            }
            .map_err(|e| format!("reference for {}: {e}", self.describe(i)))?;
            self.ops[i].reference = output.answer();
            if self.ops[i].call == Call::Reconstruct {
                let corpus = &self.corpora[self.slots[self.ops[i].store].corpus];
                let canonical = Output::Text(layers::canonical(&corpus.xml)?).answer();
                if self.ops[i].reference != canonical {
                    return Err(format!(
                        "{}: reconstruct differs from the canonical serialisation",
                        self.describe(i)
                    ));
                }
            }
        }
        let mut agreed: BTreeMap<&str, (usize, Answer)> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if op.agree.is_empty() {
                continue;
            }
            let (first, answer) = *agreed.entry(&op.agree).or_insert((i, op.reference));
            if answer != op.reference {
                return Err(format!(
                    "schemes disagree: {} answers {:?}, {} answers {:?}",
                    self.describe(first),
                    answer,
                    self.describe(i),
                    op.reference
                ));
            }
        }
        Ok(())
    }

    fn start_serving(&mut self) -> Result<(), String> {
        let store = &self.slots[0].store;
        let server = layers::serve(store, self.server_sink.as_ref())?;
        let addr = server.addr();
        let doc = self.writer_doc.clone();
        let mut think = Rng::new(self.think_seed);
        self.think_seed = think.next_u64();
        let mut handle = store.clone();
        let stop_writer = Arc::new(AtomicBool::new(false));
        let stopped = stop_writer.clone();
        let writer = std::thread::Builder::new()
            .name("bench-writer".into())
            .spawn(move || {
                let mut stats = WriterStats::default();
                let started = Instant::now();
                let mut n = 0u64;
                while !stopped.load(Ordering::Relaxed) {
                    let pair = Instant::now();
                    let loaded = layers::load_str(&mut handle, &format!("w{n}"), &doc).is_ok();
                    let removed =
                        n == 0 || layers::remove(&mut handle, &format!("w{}", n - 1)).is_ok();
                    if loaded && removed {
                        stats.pair_us.push(pair.elapsed().as_secs_f64() * 1e6);
                    } else {
                        stats.errors += 1;
                    }
                    n += 1;
                    std::thread::sleep(Duration::from_millis(
                        think.between(WRITER_THINK_MS.0, WRITER_THINK_MS.1),
                    ));
                }
                stats.seconds = started.elapsed().as_secs_f64();
                stats
            })
            .map_err(|e| format!("spawning the writer: {e}"))?;
        self.serving = Some(Serving {
            server,
            addr,
            stop_writer,
            writer,
        });
        Ok(())
    }

    /// Stop the writer and the server, wait for both, and add what they
    /// did to this world's totals.
    fn stop_serving(&mut self) {
        let Some(serving) = self.serving.take() else {
            return;
        };
        serving.stop_writer.store(true, Ordering::Relaxed);
        let stats = serving.writer.join().unwrap_or_else(|_| WriterStats {
            errors: 1,
            ..WriterStats::default()
        });
        let total = self.writer.get_or_insert_with(WriterStats::default);
        total.pair_us.extend(stats.pair_us);
        total.errors += stats.errors;
        total.seconds += stats.seconds;
        self.clean_drain &= layers::stop(serving.server);
    }

    /// True unless a writer failed a load or remove, or a server had to
    /// cancel a request to stop.
    pub fn background_ok(&self) -> bool {
        self.writer.as_ref().is_none_or(|w| w.errors == 0) && self.clean_drain
    }

    /// Tear down: every thread this world started has ended on return.
    pub fn finish(mut self) -> World {
        self.stop_serving();
        self
    }

    /// `scheme/template` (or `scheme/corpus/step`) and the call, for messages.
    pub fn describe(&self, i: usize) -> String {
        let op = &self.ops[i];
        format!("{} [{}]", self.cells[op.cell], op.call.describe())
    }

    /// FNV hash of the op list: the same `--seed` gives the same hash.
    pub fn op_list_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for op in &self.ops {
            h.write(self.cells[op.cell].as_bytes());
            h.write(&[0]);
            h.write(op.call.describe().as_bytes());
            h.write(&[0]);
        }
        h.0
    }

    /// Bytes of XML the store of op `i` holds or loads.
    fn corpus_of(&self, i: usize) -> &Corpus {
        &self.corpora[self.slots[self.ops[i].store].corpus]
    }

    /// Execute op `i` the way a user would: one call.
    pub fn exec(&mut self, i: usize, request_id: &str) -> Result<Output, String> {
        let op = &self.ops[i];
        let slot = &mut self.slots[op.store];
        match &op.call {
            Call::Run(query) => layers::run(&slot.store, query, request_id).map(Output::Items),
            Call::Count(query) => layers::count(&slot.store, query, request_id).map(Output::Number),
            Call::Load => layers::load_str(&mut slot.store, DOC, &self.corpora[slot.corpus].xml)
                .map(Output::Number),
            Call::Persist => layers::persist(&mut slot.store).map(|()| Output::Done),
            Call::Reconstruct => layers::reconstruct(&slot.store, DOC).map(Output::Text),
            Call::Remove => layers::remove(&mut slot.store, DOC).map(Output::Number),
            Call::Http(query) => {
                let addr = self.serving.as_ref().ok_or("server not started")?.addr;
                let (status, body) = layers::http_query(addr, query, request_id)?;
                if status == 503 {
                    self.shed += 1;
                }
                if status != 200 {
                    return Err(format!("HTTP {status}: {}", body.trim_end()));
                }
                Ok(Output::Body(body))
            }
        }
    }

    /// Execute op `i` layer by layer: one `bench.op#<id>` span, a child
    /// span around each call into a layer, each call's duration pushed
    /// into `rec`. `e2e_us` is the duration of the call(s) [`exec`] makes.
    ///
    /// [`exec`]: World::exec
    pub fn exec_traced(
        &mut self,
        i: usize,
        request_id: &str,
        rec: &mut LayerSamples,
    ) -> Result<Output, String> {
        let _op = layers::span(format!("bench.op#{request_id}"));
        let xml_bytes = self.corpus_of(i).xml.len() as u64;
        let op = &self.ops[i];
        let cell = op.cell;
        let slot = &mut self.slots[op.store];
        match &op.call {
            Call::Run(query) | Call::Count(query) => {
                let store = &slot.store;
                let ((), snapshot_us) = timed("bench.snapshot", || layers::snapshot(store));
                let (parsed, xq_parse_us) = timed("bench.xq_parse", || layers::parse_query(query));
                parsed?;
                let (translated, translated_us) =
                    timed("bench.translate", || layers::translated(store, query));
                translated?;
                let (rows, rows_us) = timed("bench.execute", || layers::rows(store, query));
                rows?;
                let (output, run_us) = timed("bench.publish", || match &op.call {
                    Call::Count(_) => layers::count(store, query, request_id).map(Output::Number),
                    _ => layers::run(store, query, request_id).map(Output::Items),
                });
                let output = output?;
                let items = match &output {
                    Output::Items(items) => items.len() as u64,
                    _ => 1,
                };
                // `count()` takes no `Explain`, and `run()` on a counted
                // query would publish every node it matches.
                if let Call::Run(_) = &op.call {
                    let (examined, _) = timed("bench.analyze", || {
                        layers::analyze_rows_examined(store, query)
                    });
                    rec.counts.items += items;
                    rec.counts.rows_examined += examined?;
                }
                let publish_us = (run_us - rows_us).max(0.0);
                rec.push("snapshot_us", cell, snapshot_us);
                rec.push("xq_parse_us", cell, xq_parse_us);
                rec.push("translate_us", cell, (translated_us - xq_parse_us).max(0.0));
                rec.push("execute_us", cell, (rows_us - translated_us).max(0.0));
                rec.push("publish_us", cell, publish_us);
                rec.push(
                    "publish_us_per_item",
                    cell,
                    publish_us / items.max(1) as f64,
                );
                rec.push("e2e_us", cell, run_us);
                Ok(output)
            }
            Call::Load => {
                let xml = &self.corpora[slot.corpus].xml;
                let (doc, xml_parse_us) = timed("bench.xml_parse", || layers::parse_xml(xml));
                let doc = doc?;
                let splits = layers::counter("btree_splits_total");
                let (loaded, shred_us) = timed("bench.shred", || {
                    layers::load_document(&mut slot.store, DOC, &doc)
                });
                let loaded = loaded?;
                rec.counts.btree_splits += layers::counter("btree_splits_total") - splits;
                let (stored, _) =
                    timed("bench.storage_stats", || layers::stored_bytes(&slot.store));
                rec.counts.docs += 1;
                rec.counts.user_bytes += xml_bytes;
                rec.counts.stored_bytes += stored;
                rec.push("xml_parse_us", cell, xml_parse_us);
                rec.push("shred_us", cell, shred_us);
                rec.push(
                    "load_mb_s",
                    cell,
                    xml_bytes as f64 / (xml_parse_us + shred_us),
                );
                rec.push("e2e_us", cell, xml_parse_us + shred_us);
                Ok(Output::Number(loaded))
            }
            Call::Persist => {
                let (done, us) = timed("bench.checkpoint", || layers::persist(&mut slot.store));
                done?;
                rec.push("checkpoint_us", cell, us);
                rec.push("e2e_us", cell, us);
                Ok(Output::Done)
            }
            Call::Reconstruct => {
                let (text, us) = timed("bench.reconstruct", || {
                    layers::reconstruct(&slot.store, DOC)
                });
                rec.push("reconstruct_us", cell, us);
                rec.push("e2e_us", cell, us);
                text.map(Output::Text)
            }
            Call::Remove => {
                let (removed, us) = timed("bench.remove", || layers::remove(&mut slot.store, DOC));
                rec.push("remove_us", cell, us);
                rec.push("e2e_us", cell, us);
                removed.map(Output::Number)
            }
            Call::Http(query) => {
                let addr = self.serving.as_ref().ok_or("server not started")?.addr;
                let store = &slot.store;
                let ((), snapshot_us) = timed("bench.snapshot", || layers::snapshot(store));
                let (answer, http_us) =
                    timed("bench.http", || layers::http_query(addr, query, request_id));
                let (status, body) = answer?;
                let (inproc, inproc_us) =
                    timed("bench.inproc", || layers::run(store, query, request_id));
                rec.counts.items += inproc?.len() as u64;
                rec.push("snapshot_us", cell, snapshot_us);
                rec.push("http_overhead_us", cell, (http_us - inproc_us).max(0.0));
                rec.push("e2e_us", cell, http_us);
                if status == 503 {
                    self.shed += 1;
                }
                if status != 200 {
                    return Err(format!("HTTP {status}: {}", body.trim_end()));
                }
                Ok(Output::Body(body))
            }
        }
    }
}

/// One in-process client; a store per scheme × corpus (default-size
/// `dblp`, `auction` at scale 0.1); four node-returning queries via
/// `run()`. 24 cells.
fn fragment_read(seed: u64) -> Result<World, String> {
    let mut w = World::empty("fragment-read", vec![layers::dblp(), layers::auction(0.1)]);
    for scheme in SCHEMES {
        let stores = [
            w.add_store(scheme, 0, false)?,
            w.add_store(scheme, 1, false)?,
        ];
        for (corpus, t) in &FRAGMENT_TEMPLATES {
            let cell = w.add_cell(format!("{scheme}/{}", t.label));
            w.ops.push(Op {
                cell,
                store: stores[*corpus],
                call: Call::Run(t.text.to_string()),
                reference: Answer::default(),
                agree: t.text.to_string(),
            });
        }
    }
    Rng::new(seed).shuffle(&mut w.ops);
    Ok(w)
}

/// Ops for `templates` on every store of `stores`: `rounds` rounds, each
/// template once per store per round, literals from a seeded pool.
fn query_rounds(
    w: &mut World,
    rng: &mut Rng,
    templates: &[Template],
    stores: &[(&'static str, usize)],
    rounds: usize,
) {
    let http = w.name == "serve-mixed";
    // One literal per template for each round (0 where none is taken).
    let pools: Vec<Vec<u64>> = (0..rounds)
        .map(|_| {
            templates
                .iter()
                .map(|t| t.literal.map_or(0, |(lo, hi)| rng.between(lo, hi)))
                .collect()
        })
        .collect();
    let mut cells = Vec::new();
    for (scheme, _) in stores {
        for t in templates {
            cells.push(w.add_cell(format!("{scheme}/{}", t.label)));
        }
    }
    for literals in &pools {
        for (s, (_, store)) in stores.iter().enumerate() {
            for (t, template) in templates.iter().enumerate() {
                let query = fill(template.text, literals[t]);
                w.ops.push(Op {
                    cell: cells[s * templates.len() + t],
                    store: *store,
                    agree: query.clone(),
                    call: match (http, template.count) {
                        (true, _) => Call::Http(query),
                        (false, true) => Call::Count(query),
                        (false, false) => Call::Run(query),
                    },
                    reference: Answer::default(),
                });
            }
        }
    }
    rng.shuffle(&mut w.ops);
}

/// One in-process client; six stores holding `auction` at scale 1.0;
/// eight templates returning values or counts. 48 cells.
fn value_read(seed: u64) -> Result<World, String> {
    let mut w = World::empty("value-read", vec![layers::auction(1.0)]);
    let mut stores = Vec::new();
    for scheme in SCHEMES {
        stores.push((scheme, w.add_store(scheme, 0, false)?));
    }
    query_rounds(
        &mut w,
        &mut Rng::new(seed),
        &VALUE_TEMPLATES,
        &stores,
        ROUNDS,
    );
    Ok(w)
}

/// One in-process client; one WAL-on `MemBackend` store per scheme ×
/// corpus; per store `load_str` → `persist` → `reconstruct` → `remove`.
/// 96 cells.
fn load_roundtrip(seed: u64) -> Result<World, String> {
    let corpora = vec![
        layers::auction(0.5),
        layers::dblp(),
        layers::deep(),
        layers::textheavy(50, seed),
    ];
    let mut w = World::empty("load-roundtrip", corpora);
    let mut trips: Vec<Vec<Op>> = Vec::new();
    for scheme in SCHEMES {
        for corpus in 0..w.corpora.len() {
            let store = w.add_store(scheme, corpus, true)?;
            let name = w.corpora[corpus].name;
            let steps = [
                ("load", Call::Load, true),
                ("persist", Call::Persist, false),
                ("reconstruct", Call::Reconstruct, true),
                // Rows deleted depend on the scheme's tables.
                ("remove", Call::Remove, false),
            ];
            let mut trip = Vec::new();
            for (step, call, agree) in steps {
                let cell = w.add_cell(format!("{scheme}/{name}/{step}"));
                trip.push(Op {
                    cell,
                    store,
                    call,
                    reference: Answer::default(),
                    agree: if agree {
                        format!("{name}/{step}")
                    } else {
                        String::new()
                    },
                });
            }
            trips.push(trip);
        }
    }
    // The four steps of a store stay together; the stores are shuffled.
    Rng::new(seed).shuffle(&mut trips);
    w.ops = trips.into_iter().flatten().collect();
    Ok(w)
}

/// `store.serve()` over one interval store (`auction` at scale 0.5); one
/// HTTP client issuing `POST /query` over six templates, plus one
/// in-process writer. 6 cells; the ops counted are the reads.
fn serve_mixed(seed: u64) -> Result<World, String> {
    let mut w = World::empty("serve-mixed", vec![layers::auction(0.5)]);
    let store = w.add_store("interval", 0, false)?;
    query_rounds(
        &mut w,
        &mut Rng::new(seed),
        &SERVE_TEMPLATES,
        &[("interval", store)],
        SERVE_ROUNDS,
    );
    Ok(w)
}
