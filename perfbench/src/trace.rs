//! Span recording around calls into the program's layers, plus a
//! counting global allocator.
//!
//! Spans are recorded only in this benchmark's own code, around public
//! calls into each layer; the program itself carries no tracing. Every
//! span has a layer, a start, an end, a parent and the plant or session
//! it belongs to. A span's self time is its duration minus the time its
//! child spans cover; per-layer totals of self time are kept for every
//! span, and the first [`SPAN_CAP`] spans are kept whole and written out
//! when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Spans kept whole for the written trace; later spans only feed the
/// per-layer totals, so memory stays bounded on long runs.
const SPAN_CAP: usize = 200_000;

/// The layer boundaries the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One closed-loop scenario driven by the benchmark (parent span).
    CoreRun,
    /// `TePlant::measurements_into`.
    TesimMeasure,
    /// `TePlant::step`.
    TesimStep,
    /// `DecentralizedController::step`.
    ControlStep,
    /// `FieldbusLink::uplink_into`.
    FieldbusUplink,
    /// `FieldbusLink::downlink_into`.
    FieldbusDownlink,
    /// `MspcModel::score_dataset_into` on one block, both levels.
    MspcScore,
    /// `ConsecutiveDetector::update` on one row, both levels.
    MspcDetect,
}

const N_LAYERS: usize = 8;

impl Layer {
    /// The span name written to the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreRun => "core.run",
            Layer::TesimMeasure => "tesim.measure",
            Layer::TesimStep => "tesim.step",
            Layer::ControlStep => "control.step",
            Layer::FieldbusUplink => "fieldbus.uplink",
            Layer::FieldbusDownlink => "fieldbus.downlink",
            Layer::MspcScore => "mspc.score",
            Layer::MspcDetect => "mspc.detect",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    owner: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: where it started and how much child time it covers.
struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    self_ns: [u64; N_LAYERS],
    counts: [u64; N_LAYERS],
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            self_ns: [0; N_LAYERS],
            counts: [0; N_LAYERS],
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of `layer` for plant or session `owner`, nested in
    /// the innermost open span.
    pub fn begin(&mut self, layer: Layer, owner: u32) {
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < SPAN_CAP).then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.kept);
            self.spans.push(Span {
                layer,
                owner,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let i = open.layer.index();
        self.self_ns[i] += duration.saturating_sub(open.child_ns);
        self.counts[i] += 1;
        if let Some(k) = open.kept {
            self.spans[k as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: Layer, owner: u32, f: impl FnOnce() -> T) -> T {
        self.begin(layer, owner);
        let out = f();
        self.end();
        out
    }

    /// Total self time of `layer`, nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Number of closed spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer.index()]
    }

    /// Self time of `layer` less the recording cost each of its spans
    /// carries (see [`span_cost_ns`]), nanoseconds.
    pub fn net_ns(&self, layer: Layer, span_cost_ns: f64) -> f64 {
        self.self_ns(layer) as f64 - self.count(layer) as f64 * span_cost_ns
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("id\tparent\tname\towner\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.owner,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The time an empty span records as its own: the part of the
/// recording cost that falls inside every measured span.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut tr = Tracer::new();
    tr.begin(Layer::CoreRun, 0);
    for _ in 0..N {
        tr.span(Layer::MspcDetect, 0, || ());
    }
    tr.end();
    tr.self_ns(Layer::MspcDetect) as f64 / f64::from(N)
}

/// System allocator wrapper that counts allocation calls while
/// [`count_allocations`] is switched on.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: defers entirely to the system allocator; the counter has no
// effect on the memory returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off and returns the count so far.
pub fn count_allocations(on: bool) -> u64 {
    COUNTING.store(on, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}
