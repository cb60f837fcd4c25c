//! The processing element (PE) container.
//!
//! A PE hosts one or more fused operators and corresponds to an
//! operating-system process in System S (§2.1). The container:
//!
//! - routes tuples between fused operators **in memory** and hands tuples
//!   crossing PE boundaries to the runtime transport as [`RemoteDelivery`]
//!   frames — the tuples themselves, not an encoding: the simulator's PEs
//!   share an address space and nothing reads the bytes, so a remote hop
//!   shares rows exactly as a fused hop does (a receiver that writes copies
//!   first) and what makes it remote is the transport's quantum of latency,
//!   its upstream-backup bookkeeping and the loss of input at a dead
//!   receiver,
//! - maintains built-in metrics and hosts custom metrics,
//! - executes with a bounded per-quantum *budget*, so an overloaded PE
//!   accumulates input-queue backlog (visible as the `queueSize` metric the
//!   paper's Figure 5 example subscribes to),
//! - turns an operator fault into a **PE crash** (uncaught-exception
//!   analogue): processing stops and the runtime is told, which ultimately
//!   produces the orchestrator's PE-failure event (§4.2).

use crate::ckpt::{self, OpCheckpoint, PeCheckpoint, StateBlob, CKPT_FORMAT_VERSION};
use crate::codec::{self, Frame};
use crate::error::EngineError;
use crate::metrics::{builtin, MetricId, MetricKey, MetricStore};
use crate::op::{OpCtx, Operator, Punct, StreamItem, TupleBatch};
use crate::registry::OperatorRegistry;
use crate::tuple::Tuple;
use sps_model::adl::Adl;
use sps_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Address of an operator input port in another PE. The operator name is
/// shared with the route table it was resolved from, so copying a
/// destination into each delivery allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteDest {
    pub pe: usize,
    pub op: Arc<str>,
    pub port: usize,
}

/// A frame bound for another PE: a single item, or a batch holding a run of
/// consecutive tuples from one quantum. The frame holds the emitted tuples
/// themselves (cloning a delivery copies pointers, not rows).
#[derive(Clone, Debug)]
pub struct RemoteDelivery {
    pub dest: RemoteDest,
    pub frame: Frame,
}

impl RemoteDelivery {
    /// Tuples (or punctuations) carried. Transport counters (upstream-backup
    /// buffered/replayed/suppressed totals) stay tuple-granular through this.
    pub fn items(&self) -> usize {
        self.frame.items()
    }
}

/// An item emitted on an exported output port, to be routed across jobs by
/// the import/export broker.
#[derive(Clone, Debug)]
pub struct ExportedItem {
    /// The exporting operator's name, shared with its container slot.
    pub op: Arc<str>,
    pub port: usize,
    pub item: StreamItem,
}

/// Everything a PE produced during one scheduling quantum.
#[derive(Debug, Default)]
pub struct PeOutput {
    pub remote: Vec<RemoteDelivery>,
    pub exported: Vec<ExportedItem>,
    /// Fault message if the PE crashed during this quantum.
    pub crashed: Option<String>,
    /// Budget units consumed.
    pub work_done: u64,
}

/// Built-in metrics of one operator, resolved once at build time.
struct SlotMetrics {
    processed: MetricId,
    submitted: MetricId,
    queue_size: MetricId,
    finals: MetricId,
    /// Per input port: `(nTuplesProcessed, queueSize)`.
    in_ports: Vec<(MetricId, MetricId)>,
    /// Per output port: `nTuplesSubmitted`.
    out_ports: Vec<MetricId>,
}

impl SlotMetrics {
    fn resolve(metrics: &mut MetricStore, op: &str, inputs: usize, outputs: usize) -> Self {
        let mut op_metric =
            |metric: &str| metrics.resolve(MetricKey::Operator(op.into(), metric.into()));
        let processed = op_metric(builtin::N_TUPLES_PROCESSED);
        let submitted = op_metric(builtin::N_TUPLES_SUBMITTED);
        let queue_size = op_metric(builtin::QUEUE_SIZE);
        let finals = op_metric(builtin::N_FINAL_PUNCTS_PROCESSED);
        let mut port_metric = |port: usize, metric: &str| {
            metrics.resolve(MetricKey::OperatorPort(op.into(), port, metric.into()))
        };
        SlotMetrics {
            processed,
            submitted,
            queue_size,
            finals,
            in_ports: (0..inputs)
                .map(|port| {
                    (
                        port_metric(port, builtin::N_TUPLES_PROCESSED),
                        port_metric(port, builtin::QUEUE_SIZE),
                    )
                })
                .collect(),
            out_ports: (0..outputs)
                .map(|port| port_metric(port, builtin::N_TUPLES_SUBMITTED))
                .collect(),
        }
    }
}

struct OpSlot {
    name: Arc<str>,
    kind: Arc<str>,
    op: Box<dyn Operator>,
    outputs: usize,
    cost: u32,
    /// Input queues, one per port (at least one, so Import pseudo-sources
    /// can receive broker injections).
    queues: Vec<VecDeque<StreamItem>>,
    /// Per-input-port final-punctuation tracking, maintained by the
    /// container so the default [`Operator::on_punct`] can coalesce finals
    /// of multi-input operators correctly.
    finals_seen: Vec<bool>,
    /// Local destinations per output port: `(slot index, input port)`.
    local_routes: Vec<Vec<(usize, usize)>>,
    /// Remote destinations per output port.
    remote_routes: Vec<Vec<RemoteDest>>,
    /// Output ports carrying an export spec.
    exported_ports: Vec<bool>,
    /// Round-robin cursor over input ports.
    next_port: usize,
    metrics: SlotMetrics,
    /// The entry the last [`PeRuntime::checkpoint`] produced (or
    /// [`PeRuntime::restore`] applied). Handed out again for as long as the
    /// operator's bytes and final tracking stay what it recorded.
    last_ckpt: RefCell<Option<Arc<OpCheckpoint>>>,
}

impl OpSlot {
    /// This operator's checkpoint entry. The one full compare of a snapshot
    /// happens here, new bytes against the previous entry's: on a match the
    /// previous entry goes out again, so whoever holds the earlier snapshot
    /// recognises an unchanged operator by pointer.
    fn checkpoint(&self) -> Arc<OpCheckpoint> {
        let mut last = self.last_ckpt.borrow_mut();
        let prev_len = last
            .as_ref()
            .and_then(|prev| prev.blob.as_ref())
            .map_or(0, StateBlob::len);
        let blob = ckpt::with_capacity_hint(prev_len, || self.op.checkpoint());
        if let Some(prev) = &*last {
            if prev.blob == blob && prev.finals_seen == self.finals_seen {
                return Arc::clone(prev);
            }
        }
        let entry = Arc::new(OpCheckpoint {
            name: Arc::clone(&self.name),
            kind: Arc::clone(&self.kind),
            finals_seen: self.finals_seen.clone(),
            blob,
        });
        *last = Some(Arc::clone(&entry));
        entry
    }
}

/// The PE container.
pub struct PeRuntime {
    pe_index: usize,
    slots: Vec<OpSlot>,
    op_index: BTreeMap<Arc<str>, usize>,
    metrics: MetricStore,
    /// The PE-level `nTupleBytesProcessed`.
    bytes_processed: MetricId,
    rng: SimRng,
    crashed: Option<String>,
}

/// One scheduling decision from the drain loop: a run of consecutive tuples
/// from one port, or a single punctuation (punctuation is never batched).
enum PoppedRun {
    Batch(usize, TupleBatch),
    Punct(usize, Punct),
}

/// The frame a run of emitted items leaves in: a lone item as it is, a longer
/// run (tuples only) as a batch.
fn frame_of(mut run: impl ExactSizeIterator<Item = StreamItem>) -> Frame {
    if run.len() == 1 {
        return Frame::Item(run.next().expect("one item left"));
    }
    let tuples: Vec<Tuple> = run
        .map(|item| match item {
            StreamItem::Tuple(t) => t,
            StreamItem::Punct(_) => unreachable!("runs hold only tuples"),
        })
        .collect();
    Frame::Batch(tuples.into())
}

/// Sends a run to every remote destination of its port, one frame each; the
/// last destination gets the frame built from `run`, the others copies.
fn send_remote(
    dests: &[RemoteDest],
    run: impl ExactSizeIterator<Item = StreamItem>,
    out: &mut PeOutput,
) {
    if let Some((last_dest, other_dests)) = dests.split_last() {
        let frame = frame_of(run);
        for dest in other_dests {
            let (dest, frame) = (dest.clone(), frame.clone());
            out.remote.push(RemoteDelivery { dest, frame });
        }
        let dest = last_dest.clone();
        out.remote.push(RemoteDelivery { dest, frame });
    }
}

/// Whether the PE batches around its operators. `SPS_BATCH=off|0|false`
/// forces the per-tuple reference path — single-tuple runs, one transport
/// frame per tuple — which the batching systest diffs against to prove
/// the batched data path is observationally identical. Read once per
/// process.
fn batching_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("SPS_BATCH").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

impl PeRuntime {
    /// Instantiates all operators the ADL assigns to `pe_index` and wires
    /// intra-/inter-PE routes. `rng` should be forked per PE for
    /// determinism under restarts.
    pub fn build(
        adl: &Adl,
        pe_index: usize,
        registry: &OperatorRegistry,
        rng: SimRng,
    ) -> Result<Self, EngineError> {
        let mut slots = Vec::new();
        let mut op_index = BTreeMap::new();
        let mut metrics = MetricStore::new();
        for op in adl.operators.iter().filter(|o| o.pe == pe_index) {
            let instance = registry.instantiate(op)?;
            let cost = instance.cost_per_tuple();
            let name: Arc<str> = Arc::from(op.name.as_str());
            let inputs = op.inputs.max(1);
            op_index.insert(Arc::clone(&name), slots.len());
            slots.push(OpSlot {
                kind: Arc::from(op.kind.as_str()),
                op: instance,
                outputs: op.outputs,
                cost,
                queues: (0..inputs).map(|_| VecDeque::new()).collect(),
                finals_seen: vec![false; inputs],
                local_routes: vec![Vec::new(); op.outputs],
                remote_routes: vec![Vec::new(); op.outputs],
                exported_ports: vec![false; op.outputs],
                next_port: 0,
                metrics: SlotMetrics::resolve(&mut metrics, &name, inputs, op.outputs),
                name,
                last_ckpt: RefCell::new(None),
            });
        }
        for stream in &adl.streams {
            let Some(&from_slot) = op_index.get(stream.from_op.as_str()) else {
                continue; // source is in another PE
            };
            if let Some(&to_slot) = op_index.get(stream.to_op.as_str()) {
                slots[from_slot].local_routes[stream.from_port].push((to_slot, stream.to_port));
            } else {
                let to_pe = adl
                    .pe_of(&stream.to_op)
                    .ok_or_else(|| EngineError::BadParam {
                        op: stream.to_op.clone(),
                        message: "stream target not in ADL".into(),
                    })?;
                slots[from_slot].remote_routes[stream.from_port].push(RemoteDest {
                    pe: to_pe,
                    op: Arc::from(stream.to_op.as_str()),
                    port: stream.to_port,
                });
            }
        }
        for export in &adl.exports {
            if let Some(&slot) = op_index.get(export.op.as_str()) {
                slots[slot].exported_ports[export.port] = true;
            }
        }
        let bytes_processed = metrics.resolve(MetricKey::Pe(
            pe_index,
            builtin::N_TUPLE_BYTES_PROCESSED.into(),
        ));
        Ok(PeRuntime {
            pe_index,
            slots,
            op_index,
            metrics,
            bytes_processed,
            rng,
            crashed: None,
        })
    }

    pub fn pe_index(&self) -> usize {
        self.pe_index
    }

    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    pub fn operator_names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| &*s.name).collect()
    }

    pub fn metrics(&self) -> &MetricStore {
        &self.metrics
    }

    /// Observable contents of a sink-like operator, lent.
    pub fn tap(&self, op_name: &str) -> Option<&VecDeque<Tuple>> {
        let &slot = self.op_index.get(op_name)?;
        self.slots[slot].op.tap()
    }

    /// Injects an item into an operator's input queue (broker import
    /// routing).
    pub fn inject(
        &mut self,
        op_name: &str,
        port: usize,
        item: StreamItem,
    ) -> Result<(), EngineError> {
        if self.crashed.is_some() {
            return Ok(()); // a dead process silently loses input
        }
        self.input_queue(op_name, port)?.push_back(item);
        Ok(())
    }

    /// The queue behind an operator input port (ports past the last one
    /// land on the last).
    fn input_queue(
        &mut self,
        op_name: &str,
        port: usize,
    ) -> Result<&mut VecDeque<StreamItem>, EngineError> {
        let &slot = self
            .op_index
            .get(op_name)
            .ok_or_else(|| EngineError::BadParam {
                op: op_name.to_string(),
                message: "inject target not in this PE".into(),
            })?;
        let queues = &mut self.slots[slot].queues;
        let port = port.min(queues.len().saturating_sub(1));
        Ok(&mut queues[port])
    }

    /// Takes a remote delivery — one item or a whole batch (the tuples land
    /// on the port queue in batch order, exactly as per-item deliveries
    /// would). Its bytes are counted whatever becomes of it; a dead process
    /// then loses it silently, a live one reports a misaddressed delivery.
    pub fn receive(&mut self, delivery: RemoteDelivery) -> Result<(), EngineError> {
        let RemoteDelivery { dest, frame } = delivery;
        // Punctuation is not counted at all, not counted as zero: a metric
        // exists from its first update.
        if !matches!(frame, Frame::Item(StreamItem::Punct(_))) {
            self.metrics
                .add_by(self.bytes_processed, frame.approx_bytes() as i64);
        }
        if self.crashed.is_some() {
            return Ok(());
        }
        let queue = self.input_queue(&dest.op, dest.port)?;
        match frame {
            Frame::Item(item) => queue.push_back(item),
            Frame::Batch(batch) => queue.extend(batch.into_iter().map(StreamItem::Tuple)),
        }
        Ok(())
    }

    /// Runs one scheduling quantum: source ticks, then queue draining up to
    /// `budget` units of work.
    pub fn step(&mut self, now: SimTime, quantum: SimDuration, budget: u32) -> PeOutput {
        let mut out = PeOutput::default();
        if self.crashed.is_some() {
            return out;
        }

        // Phase 1: ticks (sources and periodic operators).
        for slot_idx in 0..self.slots.len() {
            if self.tick_slot(slot_idx, now, quantum, &mut out) {
                return self.crash(out);
            }
        }

        // Phase 2: drain queues round-robin until budget exhausted. Each
        // visit to a slot pops a whole run of consecutive tuples from one
        // port and delivers it tuple by tuple; punctuation is delivered
        // singly so batch boundaries never cross a punct.
        let mut spent: u64 = 0;
        loop {
            let mut progressed = false;
            for slot_idx in 0..self.slots.len() {
                if spent >= budget as u64 {
                    break;
                }
                let cost = self.slots[slot_idx].cost as u64;
                // Largest run the remaining budget admits; matches the
                // legacy loop's overshoot (an item started under budget is
                // always charged in full).
                let headroom = (budget as u64 - spent).div_ceil(cost.max(1));
                let Some(run) = self.pop_run(slot_idx, headroom as usize) else {
                    continue;
                };
                progressed = true;
                let crashed = match run {
                    PoppedRun::Punct(port, punct) => {
                        spent += cost;
                        self.process_punct(slot_idx, port, punct, now, quantum, &mut out)
                    }
                    PoppedRun::Batch(port, batch) => {
                        spent += cost * batch.len() as u64;
                        self.process_batch(slot_idx, port, batch, now, quantum, &mut out)
                    }
                };
                if crashed {
                    out.work_done = spent;
                    return self.crash(out);
                }
            }
            if !progressed || spent >= budget as u64 {
                break;
            }
        }
        out.work_done = spent;

        // Phase 3: refresh queue-size metrics.
        self.refresh_queue_metrics();
        out
    }

    fn crash(&mut self, mut out: PeOutput) -> PeOutput {
        out.crashed = self.crashed.clone();
        // A crashing process loses its queued input.
        for slot in &mut self.slots {
            for q in &mut slot.queues {
                q.clear();
            }
        }
        out
    }

    /// Updates per-operator and per-port `queueSize` metrics.
    pub fn refresh_queue_metrics(&mut self) {
        for slot in &self.slots {
            let total: usize = slot.queues.iter().map(VecDeque::len).sum();
            self.metrics.set_by(slot.metrics.queue_size, total as i64);
            for (q, &(_, queue_size)) in slot.queues.iter().zip(&slot.metrics.in_ports) {
                self.metrics.set_by(queue_size, q.len() as i64);
            }
        }
    }

    /// Pops the next run for a slot, rotating over input ports: up to
    /// `max_items` consecutive tuples from one port (stopping at queued
    /// punctuation), or one punctuation. Slots with several input ports keep
    /// per-item runs — the legacy loop rotates ports after *every* item, so
    /// longer runs would change a multi-input operator's interleaving.
    fn pop_run(&mut self, slot_idx: usize, max_items: usize) -> Option<PoppedRun> {
        let slot = &mut self.slots[slot_idx];
        let ports = slot.queues.len();
        for offset in 0..ports {
            let port = (slot.next_port + offset) % ports;
            let queue = &mut slot.queues[port];
            match queue.front() {
                None => continue,
                Some(StreamItem::Punct(_)) => {
                    let Some(StreamItem::Punct(p)) = queue.pop_front() else {
                        unreachable!("front was a punct");
                    };
                    slot.next_port = (port + 1) % ports;
                    return Some(PoppedRun::Punct(port, p));
                }
                Some(StreamItem::Tuple(_)) => {
                    let cap = if ports > 1 || !batching_enabled() {
                        1
                    } else {
                        max_items.max(1)
                    };
                    let mut batch = TupleBatch::with_capacity(cap.min(queue.len()));
                    while batch.len() < cap {
                        match queue.front() {
                            Some(StreamItem::Tuple(_)) => {
                                let Some(StreamItem::Tuple(t)) = queue.pop_front() else {
                                    unreachable!("front was a tuple");
                                };
                                batch.push(t);
                            }
                            _ => break,
                        }
                    }
                    slot.next_port = (port + 1) % ports;
                    return Some(PoppedRun::Batch(port, batch));
                }
            }
        }
        None
    }

    /// Returns true if the operator faulted.
    fn tick_slot(
        &mut self,
        slot_idx: usize,
        now: SimTime,
        quantum: SimDuration,
        out: &mut PeOutput,
    ) -> bool {
        let slot = &mut self.slots[slot_idx];
        let mut ctx = OpCtx::new(
            now,
            quantum,
            &slot.name,
            slot.outputs,
            &mut self.metrics,
            &mut self.rng,
        );
        slot.op.on_tick(&mut ctx);
        let emitted = ctx.take_emitted();
        let fault = ctx.take_fault();
        self.route(slot_idx, emitted, out);
        if let Some(msg) = fault {
            self.crashed = Some(format!("{}: {msg}", self.slots[slot_idx].name));
            return true;
        }
        false
    }

    /// Delivers a run of consecutive tuples from one port, one `on_tuple`
    /// call each, and routes what they emitted in one go. Returns true if
    /// the operator faulted; delivery stops at the faulting tuple and the
    /// rest of the run is lost with the crashing process, like the cleared
    /// input queues.
    fn process_batch(
        &mut self,
        slot_idx: usize,
        port: usize,
        batch: TupleBatch,
        now: SimTime,
        quantum: SimDuration,
        out: &mut PeOutput,
    ) -> bool {
        // Consumption-side built-in metrics, amortized over the run.
        let k = batch.len() as i64;
        let slot = &mut self.slots[slot_idx];
        self.metrics.add_by(slot.metrics.processed, k);
        self.metrics.add_by(slot.metrics.in_ports[port].0, k);
        self.metrics
            .add_by(self.bytes_processed, batch.approx_bytes() as i64);

        let all_final = slot.finals_seen.iter().all(|&s| s);
        let mut ctx = OpCtx::new(
            now,
            quantum,
            &slot.name,
            slot.outputs,
            &mut self.metrics,
            &mut self.rng,
        );
        ctx.set_all_inputs_final(all_final);
        for tuple in batch {
            if ctx.has_fault() {
                break;
            }
            slot.op.on_tuple(port, tuple, &mut ctx);
        }
        let emitted = ctx.take_emitted();
        let fault = ctx.take_fault();
        self.route(slot_idx, emitted, out);
        if let Some(msg) = fault {
            self.crashed = Some(format!("{}: {msg}", self.slots[slot_idx].name));
            return true;
        }
        false
    }

    /// Returns true if the operator faulted.
    fn process_punct(
        &mut self,
        slot_idx: usize,
        port: usize,
        punct: Punct,
        now: SimTime,
        quantum: SimDuration,
        out: &mut PeOutput,
    ) -> bool {
        let slot = &mut self.slots[slot_idx];
        if punct == Punct::Final {
            self.metrics.add_by(slot.metrics.finals, 1);
            if let Some(seen) = slot.finals_seen.get_mut(port) {
                *seen = true;
            }
        }
        let all_final = slot.finals_seen.iter().all(|&s| s);
        let mut ctx = OpCtx::new(
            now,
            quantum,
            &slot.name,
            slot.outputs,
            &mut self.metrics,
            &mut self.rng,
        );
        ctx.set_all_inputs_final(all_final);
        slot.op.on_punct(port, punct, &mut ctx);
        let emitted = ctx.take_emitted();
        let fault = ctx.take_fault();
        self.route(slot_idx, emitted, out);
        if let Some(msg) = fault {
            self.crashed = Some(format!("{}: {msg}", self.slots[slot_idx].name));
            return true;
        }
        false
    }

    /// Routes items emitted by `slot_idx` to local queues, the remote
    /// outbox, and the export outbox, in emission order. A run of
    /// consecutive tuples on one output port leaves as a single batch frame
    /// per remote channel, and is extended onto a local queue whole when
    /// that queue is the port's only local destination and the port is not
    /// exported. A run bound for several local queues goes item by item,
    /// because two of those queues may be one ([`Self::deliver_local`]).
    /// Each item is moved into its last consumer — the last remote
    /// destination when nothing in this PE and no export takes it too; the
    /// others get (pointer) copies.
    fn route(&mut self, slot_idx: usize, emitted: Vec<(usize, StreamItem)>, out: &mut PeOutput) {
        // Lent out for the call, so a run can go straight into any queue of
        // this PE, the emitter's own included.
        let local_routes = std::mem::take(&mut self.slots[slot_idx].local_routes);
        let mut items = emitted.into_iter();
        while let Some(&(port, ref first)) = items.as_slice().first() {
            let tuples = matches!(first, StreamItem::Tuple(_));
            // Extend the run while consecutive emissions are tuples on
            // the same port; puncts and port switches end it.
            let mut len = 1;
            if tuples && batching_enabled() {
                len += items.as_slice()[1..]
                    .iter()
                    .take_while(|(p, it)| *p == port && matches!(it, StreamItem::Tuple(_)))
                    .count();
            }
            if tuples {
                self.count_submitted(slot_idx, port, len);
            }
            let slot = &self.slots[slot_idx];
            let exported = slot.exported_ports.get(port) == Some(&true);
            let exporter = exported.then(|| Arc::clone(&slot.name));
            let local = local_routes.get(port).map_or(&[][..], Vec::as_slice);
            let remote = slot.remote_routes.get(port).map_or(&[][..], Vec::as_slice);
            // Bound for other PEs only: the last frame takes the items.
            if !exported && local.is_empty() && !remote.is_empty() {
                send_remote(remote, items.by_ref().take(len).map(|(_, item)| item), out);
                continue;
            }
            let copies = items.as_slice()[..len].iter().map(|(_, item)| item.clone());
            send_remote(remote, copies, out);
            let run = items.by_ref().take(len).map(|(_, item)| item);
            self.deliver_local(local, port, exporter, run, out);
        }
        self.slots[slot_idx].local_routes = local_routes;
    }

    /// Counts a run of `len` tuples submitted on `port`. A submission on a
    /// port the operator does not have is counted, then dropped by `route`.
    fn count_submitted(&mut self, slot_idx: usize, port: usize, len: usize) {
        let slot = &self.slots[slot_idx];
        self.metrics.add_by(slot.metrics.submitted, len as i64);
        match slot.metrics.out_ports.get(port) {
            Some(&submitted) => self.metrics.add_by(submitted, len as i64),
            None => self.metrics.add(
                MetricKey::OperatorPort(
                    slot.name.to_string(),
                    port,
                    builtin::N_TUPLES_SUBMITTED.into(),
                ),
                len as i64,
            ),
        }
    }

    /// Hands a run to this PE's queues `dests` and, when `exporter` names
    /// the emitting operator, to the export outbox. A run with one local
    /// destination and no export is extended onto that queue whole, as
    /// `receive` extends a queue from a batch. Otherwise each item reaches
    /// every destination before the next item does: the ADL allows two
    /// identical streams, so two destinations may be one queue, and one
    /// `extend` per destination would turn its `a a b b` into `a b a b`.
    fn deliver_local(
        &mut self,
        dests: &[(usize, usize)],
        port: usize,
        exporter: Option<Arc<str>>,
        run: impl Iterator<Item = StreamItem>,
        out: &mut PeOutput,
    ) {
        if let (&[(to_slot, to_port)], None) = (dests, &exporter) {
            self.slots[to_slot].queues[to_port].extend(run);
            return;
        }
        let export = |op, item| ExportedItem { op, port, item };
        for item in run {
            match (dests.split_last(), &exporter) {
                (Some((&(last_slot, last_port), others)), exporter) => {
                    if let Some(op) = exporter {
                        out.exported.push(export(Arc::clone(op), item.clone()));
                    }
                    for &(to_slot, to_port) in others {
                        self.slots[to_slot].queues[to_port].push_back(item.clone());
                    }
                    self.slots[last_slot].queues[last_port].push_back(item);
                }
                (None, Some(op)) => out.exported.push(export(Arc::clone(op), item)),
                (None, None) => {}
            }
        }
    }

    // ---- checkpoint / restore ----------------------------------------------

    /// Snapshots every operator's recoverable state (plus the container's
    /// final-punct tracking, the per-port input queues, and the metric
    /// store) into a versioned [`PeCheckpoint`]. Queues are captured in
    /// wire encoding (format v2) at batch granularity — one blob per port,
    /// with runs of consecutive tuples coalesced into batch frames — so
    /// tuples in flight *inside* the container at snapshot time survive a
    /// restore; tuples delivered after the snapshot are replayed from the
    /// sender-side upstream-backup buffers instead.
    ///
    /// An operator whose serialized bytes equal those of the previous call
    /// contributes the previous call's entry (the same `Arc`), so a snapshot
    /// allocates for the operators that changed, the queues and the metric
    /// table — not for the ones that did not.
    pub fn checkpoint(&self, now: SimTime) -> PeCheckpoint {
        PeCheckpoint {
            format_version: CKPT_FORMAT_VERSION,
            pe_index: self.pe_index,
            taken_at: now,
            ops: self.slots.iter().map(OpSlot::checkpoint).collect(),
            queues: self
                .slots
                .iter()
                .map(|slot| slot.queues.iter().map(codec::encode_queue).collect())
                .collect(),
            metrics: self.metrics.snapshot(),
        }
    }

    /// Restores operator state from a checkpoint taken by an earlier
    /// incarnation of the same ADL PE. Fails (leaving the container in an
    /// unspecified, must-be-discarded state) when the checkpoint does not
    /// match this container's shape — wrong format version, PE index, or
    /// operator list — or when any blob cannot be decoded; the caller is
    /// expected to fall back to a freshly built container. Returns the
    /// number of operators whose state blob was applied.
    pub fn restore(&mut self, ckpt: &PeCheckpoint) -> Result<usize, EngineError> {
        if ckpt.format_version != CKPT_FORMAT_VERSION {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint format v{} incompatible with v{CKPT_FORMAT_VERSION}",
                ckpt.format_version
            )));
        }
        if ckpt.pe_index != self.pe_index {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint is for PE {} not {}",
                ckpt.pe_index, self.pe_index
            )));
        }
        if ckpt.ops.len() != self.slots.len() {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint has {} operators, container has {} (ADL shape changed)",
                ckpt.ops.len(),
                self.slots.len()
            )));
        }
        if ckpt.queues.len() != self.slots.len() {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint has queues for {} operators, container has {}",
                ckpt.queues.len(),
                self.slots.len()
            )));
        }
        let mut restored = 0;
        for (slot, op_ckpt) in self.slots.iter_mut().zip(&ckpt.ops) {
            if slot.name != op_ckpt.name || slot.kind != op_ckpt.kind {
                return Err(EngineError::Checkpoint(format!(
                    "checkpoint operator {}({}) does not match container slot {}({})",
                    op_ckpt.name, op_ckpt.kind, slot.name, slot.kind
                )));
            }
            if op_ckpt.finals_seen.len() == slot.finals_seen.len() {
                slot.finals_seen.copy_from_slice(&op_ckpt.finals_seen);
            } else {
                return Err(EngineError::Checkpoint(format!(
                    "checkpoint final tracking arity mismatch for {}",
                    slot.name
                )));
            }
            if let Some(blob) = &op_ckpt.blob {
                slot.op.restore(blob)?;
                restored += 1;
            }
            // The revived operator is this entry: its next checkpoint is
            // compared against (and, unchanged, *is*) the stored one.
            *slot.last_ckpt.get_mut() = Some(Arc::clone(op_ckpt));
        }
        // Repopulate the input queues from the captured wire encodings, so
        // tuples that were in flight inside the container at snapshot time
        // come back exactly (v2 exactly-once recovery).
        for (slot, q_ckpt) in self.slots.iter_mut().zip(&ckpt.queues) {
            if q_ckpt.len() != slot.queues.len() {
                return Err(EngineError::Checkpoint(format!(
                    "checkpoint queue arity mismatch for {}: {} ports vs {}",
                    slot.name,
                    q_ckpt.len(),
                    slot.queues.len()
                )));
            }
            for (queue, blob) in slot.queues.iter_mut().zip(q_ckpt) {
                queue.clear();
                queue.extend(codec::decode_queue(blob.clone())?);
            }
        }
        self.metrics.clear();
        for (key, value) in &ckpt.metrics {
            // Share the checkpoint's interned keys instead of re-cloning
            // every name string into the revived store.
            self.metrics.set_shared(Arc::clone(key), *value);
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_model::adl::{AdlExport, AdlOperator, AdlPe, AdlStream};
    use sps_model::logical::ExportSpec;
    use sps_model::value::ParamMap;
    use sps_model::Value;
    use std::rc::Rc;

    fn op(
        name: &str,
        kind: &str,
        pe: usize,
        inputs: usize,
        outputs: usize,
        params: ParamMap,
    ) -> AdlOperator {
        AdlOperator {
            name: name.into(),
            kind: kind.into(),
            composite_path: vec![],
            params,
            inputs,
            outputs,
            custom_metrics: vec![],
            pe,
            restartable: true,
            checkpointable: true,
        }
    }

    fn p(pairs: &[(&str, Value)]) -> ParamMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// beacon -> filter -> sink fused in one PE.
    fn pipeline_adl() -> Adl {
        let operators = vec![
            op("src", "Beacon", 0, 0, 1, p(&[("rate", Value::Float(50.0))])),
            op(
                "flt",
                "Filter",
                0,
                1,
                1,
                p(&[("predicate", Value::Str("seq % 2 == 0".into()))]),
            ),
            op("snk", "Sink", 0, 1, 0, ParamMap::new()),
        ];
        Adl {
            app_name: "Pipe".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: operators.iter().map(|o| o.name.clone()).collect(),
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![
                AdlStream {
                    from_op: "src".into(),
                    from_port: 0,
                    to_op: "flt".into(),
                    to_port: 0,
                },
                AdlStream {
                    from_op: "flt".into(),
                    from_port: 0,
                    to_op: "snk".into(),
                    to_port: 0,
                },
            ],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        }
    }

    fn registry() -> OperatorRegistry {
        OperatorRegistry::with_builtins()
    }

    #[test]
    fn fused_pipeline_flows_in_one_pe() {
        let adl = pipeline_adl();
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        // Built-in metrics are resolved at build time but exist only once
        // updated.
        assert!(pe.metrics().is_empty());
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        assert!(out.crashed.is_none());
        assert!(out.remote.is_empty());
        assert_eq!(
            pe.metrics()
                .op_get("snk", builtin::N_FINAL_PUNCTS_PROCESSED),
            None
        );
        // 50/s at 100ms = 5 tuples; evens pass: seq 0, 2, 4.
        let tap = pe.tap("snk").unwrap();
        assert_eq!(tap.len(), 3);
        assert_eq!(tap[0].get_int("seq"), Some(0));
        assert_eq!(
            pe.metrics().op_get("flt", builtin::N_TUPLES_PROCESSED),
            Some(5)
        );
        assert_eq!(
            pe.metrics().op_get("flt", builtin::N_TUPLES_SUBMITTED),
            Some(3)
        );
        assert_eq!(pe.metrics().op_get("flt", "nDiscarded"), Some(2));
        assert_eq!(
            pe.metrics().op_get("snk", builtin::N_TUPLES_PROCESSED),
            Some(3)
        );
        assert!(
            pe.metrics()
                .pe_get(0, builtin::N_TUPLE_BYTES_PROCESSED)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn budget_limits_work_and_queues_grow() {
        let adl = pipeline_adl();
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        // Budget of 2: sources still produce 5, only 2 items drained.
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 2);
        assert_eq!(out.work_done, 2);
        let q = pe.metrics().op_get("flt", builtin::QUEUE_SIZE).unwrap();
        assert!(q >= 3, "expected backlog, queueSize={q}");
    }

    #[test]
    fn cross_pe_streams_share_the_senders_rows() {
        let mut adl = pipeline_adl();
        // Move sink to PE 1.
        adl.operators[2].pe = 1;
        adl.pes[0].operators = vec!["src".into(), "flt".into()];
        adl.pes.push(AdlPe {
            index: 1,
            operators: vec!["snk".into()],
            host_pool: None,
            host_exlocate: None,
        });
        let mut pe0 = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let mut pe1 = PeRuntime::build(&adl, 1, &registry(), SimRng::new(2)).unwrap();
        let out0 = pe0.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        // Batched, consecutive same-port tuples coalesce into batch frames,
        // so the delivery count is below the tuple count but the item total
        // matches; per tuple, each tuple leaves in a frame of its own.
        let items: usize = out0.remote.iter().map(RemoteDelivery::items).sum();
        assert_eq!(items, 3);
        assert!(out0
            .remote
            .iter()
            .all(|d| d.dest.pe == 1 && &*d.dest.op == "snk"));
        let first = if batching_enabled() {
            assert!(out0.remote.len() <= 3);
            let Frame::Batch(sent) = &out0.remote[0].frame else {
                panic!("a run of tuples leaves as a batch");
            };
            sent.as_slice()[0].clone()
        } else {
            assert_eq!(out0.remote.len(), 3, "one frame per tuple");
            assert!(out0
                .remote
                .iter()
                .all(|d| matches!(d.frame, Frame::Item(StreamItem::Tuple(_)))));
            let Frame::Item(StreamItem::Tuple(sent)) = &out0.remote[0].frame else {
                panic!("a tuple leaves as an item");
            };
            sent.clone()
        };
        let senders_schema = Rc::clone(first.schema());
        for d in out0.remote {
            pe1.receive(d).unwrap();
        }
        pe1.step(
            SimTime::from_millis(100),
            SimDuration::from_millis(100),
            10_000,
        );
        assert_eq!(pe1.tap("snk").unwrap().len(), 3);

        // Nothing was decoded: a later quantum's tuples, like the first's,
        // are the sender's rows under the sender's schema.
        let out0 = pe0.step(
            SimTime::from_millis(100),
            SimDuration::from_millis(100),
            10_000,
        );
        assert!(!out0.remote.is_empty());
        let mut lost = out0.remote[0].clone();
        for d in out0.remote {
            pe1.receive(d).unwrap();
        }
        pe1.step(
            SimTime::from_millis(200),
            SimDuration::from_millis(100),
            10_000,
        );
        let tap = pe1.tap("snk").unwrap();
        assert!(tap.len() > 3);
        assert!(tap.iter().all(|t| Rc::ptr_eq(t.schema(), &senders_schema)));

        // A misaddressed delivery is an addressing error. (A corrupt one
        // has no representation: the frame is the tuples.)
        lost.dest.op = "nowhere".into();
        assert!(matches!(
            pe1.receive(lost),
            Err(EngineError::BadParam { .. })
        ));
    }

    /// One emission fanned out to a local sink and two remote PEs is one
    /// row held three times; the receiver that writes it copies it first.
    #[test]
    fn a_row_fanned_out_across_pes_is_copied_by_the_receiver_that_writes_it() {
        let operators = vec![
            op("src", "Beacon", 0, 0, 1, p(&[("rate", Value::Float(50.0))])),
            op("near", "Sink", 0, 1, 0, ParamMap::new()),
            op(
                "bump",
                "Functor",
                1,
                1,
                1,
                p(&[("set:seq", "seq + 100".into())]),
            ),
            op("bumped", "Sink", 1, 1, 0, ParamMap::new()),
            op("far", "Sink", 2, 1, 0, ParamMap::new()),
        ];
        let stream = |from: &str, to: &str| AdlStream {
            from_op: from.into(),
            from_port: 0,
            to_op: to.into(),
            to_port: 0,
        };
        let adl = Adl {
            app_name: "FanOut".into(),
            pes: (0..3)
                .map(|index| AdlPe {
                    index,
                    operators: operators
                        .iter()
                        .filter(|o| o.pe == index)
                        .map(|o| o.name.clone())
                        .collect(),
                    host_pool: None,
                    host_exlocate: None,
                })
                .collect(),
            streams: vec![
                stream("src", "near"),
                stream("src", "bump"),
                stream("src", "far"),
                stream("bump", "bumped"),
            ],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        let mut pes: Vec<PeRuntime> = (0..3)
            .map(|pe| PeRuntime::build(&adl, pe, &registry(), SimRng::new(1)).unwrap())
            .collect();
        let q = SimDuration::from_millis(100);
        let out = pes[0].step(SimTime::ZERO, q, 10_000);
        // Batched, one frame per remote destination carries the run; per
        // tuple, one frame per tuple per destination.
        let frames_per_dest = if batching_enabled() { 1 } else { 5 };
        assert_eq!(out.remote.len(), 2 * frames_per_dest);
        for d in out.remote {
            assert_eq!(d.items(), 5 / frames_per_dest);
            if !batching_enabled() {
                assert!(matches!(d.frame, Frame::Item(StreamItem::Tuple(_))));
            }
            let to = d.dest.pe;
            pes[to].receive(d).unwrap();
        }
        for pe in &mut pes[1..] {
            pe.step(SimTime::from_millis(100), q, 10_000);
        }
        let near = pes[0].tap("near").unwrap();
        let bumped = pes[1].tap("bumped").unwrap();
        let far = pes[2].tap("far").unwrap();
        let seqs = |tap: &VecDeque<Tuple>| -> Vec<i64> {
            tap.iter().map(|t| t.get_int("seq").unwrap()).collect()
        };
        assert_eq!(seqs(near), [0, 1, 2, 3, 4]);
        assert_eq!(seqs(far), [0, 1, 2, 3, 4]);
        assert_eq!(seqs(bumped), [100, 101, 102, 103, 104]);
        for ((near, far), bumped) in near.iter().zip(far).zip(bumped) {
            // The untouched holders still share the emitted row...
            assert!(std::ptr::eq(near.values(), far.values()));
            // ...and the writer holds its own, under the shared schema.
            assert!(!std::ptr::eq(near.values(), bumped.values()));
            assert!(Rc::ptr_eq(near.schema(), bumped.schema()));
        }
    }

    /// Counts its tuples under a custom metric, through a handle it
    /// resolves on the first one.
    struct HandleCounter {
        seen: Option<MetricId>,
    }

    impl Operator for HandleCounter {
        fn on_tuple(&mut self, _port: usize, _tuple: Tuple, ctx: &mut OpCtx) {
            let id = *self.seen.get_or_insert_with(|| ctx.metric_id("nSeen"));
            ctx.metric_add_by(id, 1);
        }
    }

    fn single_op_pe(kind: &str, params: ParamMap, registry: &OperatorRegistry) -> PeRuntime {
        let operators = vec![op("cnt", kind, 0, 1, 1, params)];
        let adl = Adl {
            app_name: "Count".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: vec!["cnt".into()],
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        PeRuntime::build(&adl, 0, registry, SimRng::new(1)).unwrap()
    }

    /// `pe`'s operator `cnt` counts every `tuple` it is fed under `metric`,
    /// through a handle it resolves at the first one: the metric must not
    /// exist before that, and the handle must outlive restores.
    fn assert_lazy_handle_survives_restore(mut pe: PeRuntime, metric: &str, tuple: Tuple) {
        let q = SimDuration::from_millis(100);
        let feed = |pe: &mut PeRuntime| {
            pe.inject("cnt", 0, StreamItem::Tuple(tuple.clone()))
                .unwrap();
            pe.step(SimTime::ZERO, q, 100);
        };
        let seen = |pe: &PeRuntime| pe.metrics().op_get("cnt", metric);
        let listed = |pe: &PeRuntime| {
            pe.metrics()
                .snapshot()
                .iter()
                .any(|(k, _)| k.metric_name() == metric)
        };

        // Before the first tuple the metric does not exist.
        let before_first = pe.checkpoint(SimTime::ZERO);
        assert_eq!(seen(&pe), None);
        feed(&mut pe);
        assert_eq!(seen(&pe), Some(1));
        let at_one = pe.checkpoint(SimTime::ZERO);
        feed(&mut pe);
        assert_eq!(seen(&pe), Some(2));

        // Restoring rolls the value back; the operator's handle, resolved
        // before the restore, still names the same metric.
        pe.restore(&at_one).unwrap();
        assert_eq!(seen(&pe), Some(1));
        feed(&mut pe);
        assert_eq!(seen(&pe), Some(2));

        // Rolled back to before its first update, the metric is absent
        // again — to `get`, `iter` and `snapshot` — until the held handle
        // updates it.
        pe.restore(&before_first).unwrap();
        assert_eq!(seen(&pe), None);
        assert!(!listed(&pe));
        assert!(pe.metrics().iter().all(|(k, _)| k.metric_name() != metric));
        feed(&mut pe);
        assert_eq!(seen(&pe), Some(1));
        assert!(listed(&pe));
    }

    #[test]
    fn metric_handles_stay_valid_across_restore() {
        let mut registry = registry();
        registry.register("HandleCounter", |_| {
            Ok(Box::new(HandleCounter { seen: None }))
        });
        assert_lazy_handle_survives_restore(
            single_op_pe("HandleCounter", ParamMap::new(), &registry),
            "nSeen",
            Tuple::new(),
        );
        // A built-in that keeps its custom metric the same way: a Filter
        // whose predicate discards every tuple it is fed.
        assert_lazy_handle_survives_restore(
            single_op_pe("Filter", p(&[("predicate", "v > 100".into())]), &registry),
            "nDiscarded",
            Tuple::new().with("v", 1i64),
        );
    }

    #[test]
    fn operator_fault_crashes_pe() {
        let operators = vec![
            op("src", "Beacon", 0, 0, 1, p(&[("rate", Value::Float(50.0))])),
            op(
                "bomb",
                "FaultInject",
                0,
                1,
                1,
                p(&[("fault_after", Value::Int(3))]),
            ),
            op("snk", "Sink", 0, 1, 0, ParamMap::new()),
        ];
        let adl = Adl {
            app_name: "Boom".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: operators.iter().map(|o| o.name.clone()).collect(),
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![
                AdlStream {
                    from_op: "src".into(),
                    from_port: 0,
                    to_op: "bomb".into(),
                    to_port: 0,
                },
                AdlStream {
                    from_op: "bomb".into(),
                    from_port: 0,
                    to_op: "snk".into(),
                    to_port: 0,
                },
            ],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        let msg = out.crashed.expect("PE should crash");
        assert!(msg.contains("bomb"));
        assert!(msg.contains("injected fault"));
        assert!(pe.is_crashed());
        // A crashed PE does nothing further and swallows injections.
        let out2 = pe.step(
            SimTime::from_millis(100),
            SimDuration::from_millis(100),
            10_000,
        );
        assert!(out2.crashed.is_none());
        assert_eq!(out2.work_done, 0);
        assert!(pe
            .inject("bomb", 0, StreamItem::Tuple(Tuple::new()))
            .is_ok());
    }

    /// A run is delivered one `on_tuple` at a time and stops at the tuple
    /// that faults: the tuples before it leave, the ones after it die with
    /// the process.
    #[test]
    fn a_run_stops_at_its_faulting_tuple() {
        struct FaultOnTwo;
        impl Operator for FaultOnTwo {
            fn on_tuple(&mut self, _p: usize, t: Tuple, ctx: &mut OpCtx) {
                ctx.metric_add("consumed", 1);
                if t.get_int("v") == Some(2) {
                    ctx.raise_fault("bad tuple");
                    return;
                }
                ctx.submit(0, t);
            }
        }
        let mut reg = registry();
        reg.register("FaultOnTwo", |_| Ok(Box::new(FaultOnTwo)));
        let operators = vec![op("f2", "FaultOnTwo", 0, 1, 1, ParamMap::new())];
        let adl = Adl {
            app_name: "Run".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: vec!["f2".into()],
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![],
            operators,
            imports: vec![],
            exports: vec![AdlExport {
                op: "f2".into(),
                port: 0,
                spec: ExportSpec::by_id("out"),
            }],
            host_pools: vec![],
        };
        let mut pe = PeRuntime::build(&adl, 0, &reg, SimRng::new(1)).unwrap();
        for v in 1..=4i64 {
            let t = StreamItem::Tuple(Tuple::new().with("v", v));
            pe.inject("f2", 0, t).unwrap();
        }
        // Not part of the run: only the crash takes it off the queue.
        pe.inject("f2", 0, StreamItem::Punct(Punct::Window))
            .unwrap();
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        let left: Vec<_> = out.exported.iter().map(|e| &e.item).collect();
        assert_eq!(left, [&StreamItem::Tuple(Tuple::new().with("v", 1i64))]);
        assert_eq!(pe.metrics().op_get("f2", "consumed"), Some(2));
        assert_eq!(out.crashed.as_deref(), Some("f2: bad tuple"));
        assert!(pe
            .slots
            .iter()
            .all(|s| s.queues.iter().all(VecDeque::is_empty)));
    }

    /// `i64::MIN / -1`, `i64::MIN % -1` and `-i64::MIN` used to panic —
    /// the process, not the PE, and the negation in debug builds only. They
    /// wrap, like the other integer operators.
    #[test]
    fn integer_overflow_in_a_functor_is_a_value_not_a_panic() {
        const MIN: &str = "(0 - 9223372036854775807 - 1)";
        let mut adl = pipeline_adl();
        adl.operators[1] = op(
            "flt",
            "Functor",
            0,
            1,
            1,
            p(&[
                ("set:q", format!("{MIN} / -1").as_str().into()),
                ("set:r", format!("{MIN} % -1").as_str().into()),
                ("set:n", format!("-{MIN}").as_str().into()),
                (
                    "set:seq",
                    format!("{MIN} / (seq - seq - 1)").as_str().into(),
                ),
            ]),
        );
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        assert_eq!(out.crashed, None);
        let tap = pe.tap("snk").unwrap();
        assert!(!tap.is_empty());
        for t in tap {
            assert_eq!(t.get_int("q"), Some(i64::MIN));
            assert_eq!(t.get_int("r"), Some(0));
            assert_eq!(t.get_int("n"), Some(i64::MIN));
            assert_eq!(t.get_int("seq"), Some(i64::MIN));
        }
    }

    #[test]
    fn exported_ports_are_captured() {
        let mut adl = pipeline_adl();
        adl.exports.push(AdlExport {
            op: "flt".into(),
            port: 0,
            spec: ExportSpec::by_id("evens"),
        });
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let out = pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        assert_eq!(out.exported.len(), 3);
        assert!(out.exported.iter().all(|e| &*e.op == "flt" && e.port == 0));
        // Export does not steal from local consumers.
        assert_eq!(pe.tap("snk").unwrap().len(), 3);
    }

    #[test]
    fn final_punct_counted_and_propagated() {
        let operators = vec![
            op(
                "src",
                "Beacon",
                0,
                0,
                1,
                p(&[("rate", Value::Float(100.0)), ("limit", Value::Int(2))]),
            ),
            op("mid", "PassThrough", 0, 1, 1, ParamMap::new()),
            op("snk", "Sink", 0, 1, 0, ParamMap::new()),
        ];
        let adl = Adl {
            app_name: "Fin".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: operators.iter().map(|o| o.name.clone()).collect(),
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![
                AdlStream {
                    from_op: "src".into(),
                    from_port: 0,
                    to_op: "mid".into(),
                    to_port: 0,
                },
                AdlStream {
                    from_op: "mid".into(),
                    from_port: 0,
                    to_op: "snk".into(),
                    to_port: 0,
                },
            ],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        pe.step(SimTime::ZERO, SimDuration::from_millis(100), 10_000);
        assert_eq!(
            pe.metrics()
                .op_get("snk", builtin::N_FINAL_PUNCTS_PROCESSED),
            Some(1)
        );
        assert_eq!(pe.tap("snk").unwrap().len(), 2);
    }

    #[test]
    fn inject_unknown_operator_errors() {
        let adl = pipeline_adl();
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        assert!(pe
            .inject("ghost", 0, StreamItem::Tuple(Tuple::new()))
            .is_err());
    }

    #[test]
    fn unknown_kind_fails_build() {
        let mut adl = pipeline_adl();
        adl.operators[1].kind = "Mystery".into();
        assert!(matches!(
            PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)),
            Err(EngineError::UnknownOperatorKind(_))
        ));
    }

    #[test]
    fn operator_names_lists_pe_members() {
        let adl = pipeline_adl();
        let pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        assert_eq!(pe.operator_names(), vec!["src", "flt", "snk"]);
        assert_eq!(pe.pe_index(), 0);
    }

    #[test]
    fn checkpoint_restore_preserves_state_and_digest() {
        let adl = pipeline_adl();
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let q = SimDuration::from_millis(100);
        for i in 0..5u64 {
            pe.step(SimTime::from_millis(i * 100), q, 10_000);
        }
        let tap_before = pe.tap("snk").unwrap();
        assert!(!tap_before.is_empty());
        let ckpt = pe.checkpoint(SimTime::from_millis(500));
        assert!(ckpt.stateful_ops() >= 2, "beacon + sink are stateful");
        assert!(ckpt.state_bytes() > 0);

        // Restore into a freshly built container (the restart path).
        let mut revived = PeRuntime::build(&adl, 0, &registry(), SimRng::new(99)).unwrap();
        let restored = revived.restore(&ckpt).unwrap();
        assert_eq!(restored, ckpt.stateful_ops());
        let tap_revived = revived.tap("snk").unwrap();
        assert_eq!(tap_revived, tap_before);
        // The sink's ring came back out of one blob: its same-shape tuples
        // share one schema instead of carrying one each.
        assert!(tap_revived.len() > 1);
        for t in tap_revived {
            assert!(Rc::ptr_eq(t.schema(), tap_revived[0].schema()));
        }
        assert_eq!(
            revived.metrics().op_get("flt", builtin::N_TUPLES_PROCESSED),
            pe.metrics().op_get("flt", builtin::N_TUPLES_PROCESSED)
        );
        // Canonical encoding: re-checkpointing the restored container
        // reproduces the original digest (how the runtime verifies restores).
        let again = revived.checkpoint(SimTime::from_secs(60));
        assert_eq!(again.digest(), ckpt.digest());
        // More than equal: every unchanged operator contributes the very
        // entry it was restored from, so a store holding `ckpt` sees a
        // clean operator by pointer.
        for (stored, retaken) in ckpt.ops.iter().zip(&again.ops) {
            assert!(Arc::ptr_eq(stored, retaken));
        }

        // The revived beacon continues the sequence instead of rewinding to
        // zero: the next emitted seq picks up where the checkpoint left off.
        let last_seq = tap_before.back().unwrap().get_int("seq").unwrap();
        revived.step(SimTime::from_millis(600), q, 10_000);
        let tap_after = revived.tap("snk").unwrap();
        let next_seq = tap_after[tap_before.len()].get_int("seq").unwrap();
        assert!(next_seq > last_seq, "{next_seq} vs {last_seq}");
    }

    #[test]
    fn unchanged_operators_keep_their_checkpoint_entry() {
        let adl = pipeline_adl();
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let q = SimDuration::from_millis(100);
        pe.step(SimTime::from_millis(100), q, 10_000);
        let first = pe.checkpoint(SimTime::from_millis(100));
        // Nothing ran in between: every entry is handed out again.
        let idle = pe.checkpoint(SimTime::from_millis(150));
        assert_eq!(idle.digest(), first.digest());
        for (a, b) in first.ops.iter().zip(&idle.ops) {
            assert!(Arc::ptr_eq(a, b));
        }
        // A quantum later the stateful operators moved and carry new
        // entries; the stateless filter still carries its first one. Names
        // and kinds are shared with the container either way.
        pe.step(SimTime::from_millis(200), q, 10_000);
        let second = pe.checkpoint(SimTime::from_millis(200));
        assert_ne!(second.digest(), first.digest());
        for (a, b) in first.ops.iter().zip(&second.ops) {
            assert_eq!(Arc::ptr_eq(a, b), a.blob == b.blob, "{}", a.name);
            assert!(Arc::ptr_eq(&a.name, &b.name) && Arc::ptr_eq(&a.kind, &b.kind));
        }
        assert!(first
            .ops
            .iter()
            .zip(&second.ops)
            .any(|(a, b)| a.blob != b.blob));
        assert!(first.ops.iter().any(|a| a.blob.is_none()));
        // A moved final-punctuation flag alone makes a new entry too.
        pe.inject("flt", 0, StreamItem::Punct(Punct::Final))
            .unwrap();
        pe.step(SimTime::from_millis(300), q, 10_000);
        let third = pe.checkpoint(SimTime::from_millis(300));
        let flt = |c: &PeCheckpoint| Arc::clone(c.ops.iter().find(|o| &*o.name == "flt").unwrap());
        assert_eq!(flt(&second).blob, flt(&third).blob);
        assert_ne!(flt(&second).finals_seen, flt(&third).finals_seen);
    }

    #[test]
    fn restore_rejects_incompatible_checkpoints() {
        let adl = pipeline_adl();
        let pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let good = pe.checkpoint(SimTime::ZERO);

        let mut target = PeRuntime::build(&adl, 0, &registry(), SimRng::new(2)).unwrap();
        // Wrong format version.
        let mut bad = good.clone();
        bad.format_version += 1;
        assert!(target.restore(&bad).is_err());
        // Wrong PE index.
        let mut bad = good.clone();
        bad.pe_index = 7;
        assert!(target.restore(&bad).is_err());
        // Renamed operator (ADL shape change).
        let mut bad = good.clone();
        Arc::make_mut(&mut bad.ops[1]).name = "ghost".into();
        assert!(target.restore(&bad).is_err());
        // Changed kind under the same name.
        let mut bad = good.clone();
        Arc::make_mut(&mut bad.ops[0]).kind = "Sink".into();
        assert!(target.restore(&bad).is_err());
        // Dropped operator entry.
        let mut bad = good.clone();
        bad.ops.pop();
        assert!(target.restore(&bad).is_err());
        // The pristine checkpoint still applies.
        assert!(target.restore(&good).is_ok());
    }

    /// Regression for the multi-input early-final bug at container level: an
    /// operator relying on the *default* `on_punct` (here PassThrough with
    /// two declared inputs) must not emit `Final` downstream until every
    /// input port delivered its own final punctuation.
    #[test]
    fn two_input_default_op_finalizes_after_both_ports() {
        let operators = vec![
            op(
                "a",
                "Beacon",
                0,
                0,
                1,
                p(&[("rate", Value::Float(100.0)), ("limit", Value::Int(2))]),
            ),
            op(
                "b",
                "Beacon",
                0,
                0,
                1,
                p(&[("rate", Value::Float(10.0)), ("limit", Value::Int(20))]),
            ),
            // Two-input pass-through NOT using FinalPunctTracker.
            op("mix", "PassThrough", 0, 2, 1, ParamMap::new()),
            op("snk", "Sink", 0, 1, 0, ParamMap::new()),
        ];
        let adl = Adl {
            app_name: "Mix".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: operators.iter().map(|o| o.name.clone()).collect(),
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![
                AdlStream {
                    from_op: "a".into(),
                    from_port: 0,
                    to_op: "mix".into(),
                    to_port: 0,
                },
                AdlStream {
                    from_op: "b".into(),
                    from_port: 0,
                    to_op: "mix".into(),
                    to_port: 1,
                },
                AdlStream {
                    from_op: "mix".into(),
                    from_port: 0,
                    to_op: "snk".into(),
                    to_port: 0,
                },
            ],
            operators,
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        let mut pe = PeRuntime::build(&adl, 0, &registry(), SimRng::new(1)).unwrap();
        let q = SimDuration::from_millis(100);
        // Beacon a (100/s, limit 2) finishes on the first tick; beacon b
        // (10/s, limit 20) keeps going for 2 seconds.
        pe.step(SimTime::ZERO, q, 10_000);
        assert_eq!(
            pe.metrics()
                .op_get("snk", builtin::N_FINAL_PUNCTS_PROCESSED)
                .unwrap_or(0),
            0,
            "final must not propagate after only one input finished"
        );
        for i in 1..=25u64 {
            pe.step(SimTime::from_millis(i * 100), q, 10_000);
        }
        assert_eq!(
            pe.metrics()
                .op_get("snk", builtin::N_FINAL_PUNCTS_PROCESSED),
            Some(1),
            "exactly one final once both inputs finished"
        );
        // All 22 tuples made it through the merge point.
        assert_eq!(pe.tap("snk").unwrap().len(), 22);
    }
}
