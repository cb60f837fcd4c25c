//! Runs: how tuples move inside a PE container.
//!
//! An operator emits one tuple at a time ([`crate::OpCtx::submit`]); the
//! container keeps consecutive tuples on one output port together as one
//! *run*, a bare `Vec<Tuple>`. A run leaves the PE as one batch frame, or
//! lands whole on the queue of a fused operator downstream. An input
//! port's [`PortQueue`] keeps what arrives the same way — runs and single
//! items side by side, plus an item count — so a run that fits the popping
//! slot's headroom is handed on whole, without touching its tuples.
//!
//! Batching stays invisible to operators and to determinism: a pop returns
//! exactly the tuples, with exactly the batch boundaries, that popping a
//! flat queue of items would, and the PE still hands them to the operator
//! one `on_tuple` at a time.

use crate::codec::{Frame, QueueWriter};
use crate::op::{Punct, StreamItem, TupleBatch};
use crate::tuple::Tuple;
use bytes::Bytes;
use std::collections::VecDeque;

/// Whether the PE batches around its operators. `SPS_BATCH=off|0|false`
/// forces the per-tuple reference path — every emitted tuple its own run,
/// one transport frame and one pop per tuple — which the batching systest
/// diffs against to prove the batched data path is observationally
/// identical. Read once per process.
pub(crate) fn batching_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("SPS_BATCH").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

/// One entry of what an operator callback emitted, in emission order.
#[derive(Debug)]
pub(crate) enum Emission {
    /// A punctuation, or a tuple that no further tuple joined on its port.
    /// A lone tuple is kept inline: it costs no heap request of its own.
    Item(usize, StreamItem),
    /// Two or more consecutive tuples on one port.
    Run(usize, Vec<Tuple>),
}

/// Forms runs from one callback's submissions: a tuple joins the previous
/// emission when that is a tuple on the same port, so a punctuation or a
/// port switch starts a new run. With batching off every tuple stays its
/// own entry.
#[derive(Debug)]
pub(crate) struct Emissions {
    list: Vec<Emission>,
    batching: bool,
}

impl Emissions {
    pub(crate) fn new() -> Self {
        Emissions {
            list: Vec::new(),
            batching: batching_enabled(),
        }
    }

    pub(crate) fn tuple(&mut self, port: usize, tuple: Tuple) {
        if self.batching {
            match self.list.last_mut() {
                Some(Emission::Run(p, run)) if *p == port => return run.push(tuple),
                Some(last @ Emission::Item(..)) if last.lone_tuple_on(port) => {
                    let Emission::Item(_, StreamItem::Tuple(first)) =
                        std::mem::replace(last, Emission::Run(port, Vec::new()))
                    else {
                        unreachable!("checked above");
                    };
                    if let Emission::Run(_, run) = last {
                        run.push(first);
                        run.push(tuple);
                    }
                    return;
                }
                _ => {}
            }
        }
        self.list
            .push(Emission::Item(port, StreamItem::Tuple(tuple)));
    }

    pub(crate) fn punct(&mut self, port: usize, punct: Punct) {
        self.list
            .push(Emission::Item(port, StreamItem::Punct(punct)));
    }

    pub(crate) fn take(&mut self) -> Vec<Emission> {
        std::mem::take(&mut self.list)
    }
}

impl Emission {
    fn lone_tuple_on(&self, port: usize) -> bool {
        matches!(self, Emission::Item(p, StreamItem::Tuple(_)) if *p == port)
    }

    /// The output port it was emitted on.
    pub(crate) fn port(&self) -> usize {
        match self {
            Emission::Item(port, _) | Emission::Run(port, _) => *port,
        }
    }

    /// Tuples it holds: 0 for a punctuation.
    pub(crate) fn tuples(&self) -> usize {
        match self {
            Emission::Item(_, StreamItem::Tuple(_)) => 1,
            Emission::Item(_, StreamItem::Punct(_)) => 0,
            Emission::Run(_, run) => run.len(),
        }
    }

    /// The transport frame that carries it, in O(1): the run is the batch.
    pub(crate) fn into_frame(self) -> Frame {
        match self {
            Emission::Item(_, item) => Frame::Item(item),
            Emission::Run(_, run) => Frame::Batch(run.into()),
        }
    }

    /// A frame of (pointer) copies of its tuples.
    pub(crate) fn to_frame(&self) -> Frame {
        match self {
            Emission::Item(_, item) => Frame::Item(item.clone()),
            Emission::Run(_, run) => Frame::Batch(run.clone().into()),
        }
    }

    /// Its items one by one.
    pub(crate) fn into_items(self) -> impl Iterator<Item = StreamItem> {
        let (item, run) = match self {
            Emission::Item(_, item) => (Some(item), Vec::new()),
            Emission::Run(_, run) => (None, run),
        };
        item.into_iter()
            .chain(run.into_iter().map(StreamItem::Tuple))
    }
}

/// One entry of a [`PortQueue`], no larger than the item it may keep
/// inline.
#[derive(Debug)]
enum Entry {
    /// A single item, kept inline.
    Item(StreamItem),
    /// A run of tuples that arrived whole: the front of the queue's `runs`
    /// when this is its first run entry.
    Run,
}

impl Entry {
    /// Whether it holds a tuple: a run is never empty.
    fn holds_tuples(&self) -> bool {
        !matches!(self, Entry::Item(StreamItem::Punct(_)))
    }
}

/// What one [`PortQueue::pop`] takes off the front of a queue.
#[derive(Debug, PartialEq)]
pub enum Popped {
    Punct(Punct),
    /// One tuple: the pop's cap was one, or the tuple stood alone before a
    /// punctuation or the end of the queue.
    Tuple(Tuple),
    /// Consecutive tuples, at most the pop's cap of them.
    Batch(TupleBatch),
}

impl Popped {
    /// Items taken off the queue.
    pub fn items(&self) -> usize {
        match self {
            Popped::Punct(_) | Popped::Tuple(_) => 1,
            Popped::Batch(batch) => batch.len(),
        }
    }

    /// Sum of the tuples' size estimates (punctuation counts nothing).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Popped::Punct(_) => 0,
            Popped::Tuple(t) => t.approx_bytes(),
            Popped::Batch(batch) => batch.approx_bytes(),
        }
    }
}

/// The queue behind one operator input port: the items in arrival order,
/// held as inline single items and whole runs, with their count.
#[derive(Debug, Default)]
pub struct PortQueue {
    entries: VecDeque<Entry>,
    /// The tuples of each [`Entry::Run`], in the entries' order; none is
    /// empty.
    runs: VecDeque<VecDeque<Tuple>>,
    /// Items queued, over all entries.
    len: usize,
}

impl PortQueue {
    pub fn new() -> Self {
        PortQueue::default()
    }

    /// Items queued (tuples and punctuation).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.entries.clear();
        self.runs.clear();
        self.len = 0;
    }

    /// Queues one item inline.
    pub fn push(&mut self, item: StreamItem) {
        self.len += 1;
        self.entries.push_back(Entry::Item(item));
    }

    /// Queues a run whole, in O(1): the run's buffer becomes the entry's.
    pub fn push_run(&mut self, run: TupleBatch) {
        if !run.is_empty() {
            self.len += run.len();
            self.runs.push_back(Vec::from(run).into());
            self.entries.push_back(Entry::Run);
        }
    }

    /// Pops a punctuation, or up to `cap` (at least one) consecutive tuples
    /// from the front. A front run that fits is handed over whole; a shorter
    /// one is joined by the tuples after it, up to `cap`; a longer one is
    /// split at `cap`. A single tuple is taken in O(1).
    pub fn pop(&mut self, cap: usize) -> Option<Popped> {
        let cap = cap.max(1);
        let n = match self.entries.front()? {
            Entry::Run => self.runs.front().expect("a run entry has its run").len(),
            item => usize::from(item.holds_tuples()),
        };
        let followed = self.entries.get(1).is_some_and(Entry::holds_tuples);
        let popped = if n == 0 || n == cap || (n < cap && !followed) {
            // The front entry whole: a punctuation, or all the tuples there
            // are up to the next punctuation, within the cap.
            match self.entries.pop_front().expect("front exists") {
                Entry::Item(StreamItem::Punct(p)) => Popped::Punct(p),
                Entry::Item(StreamItem::Tuple(t)) => Popped::Tuple(t),
                Entry::Run => {
                    let run = self.runs.pop_front().expect("a run entry has its run");
                    Popped::Batch(Vec::from(run).into())
                }
            }
        } else if n > cap {
            // Only a run holds more than one tuple.
            let run = self.runs.front_mut().expect("a run entry has its run");
            if cap == 1 {
                Popped::Tuple(run.pop_front().expect("longer than the cap"))
            } else {
                Popped::Batch(run.drain(..cap).collect::<Vec<_>>().into())
            }
        } else {
            Popped::Batch(self.join(cap))
        };
        self.len -= popped.items();
        Some(popped)
    }

    /// Takes up to `cap` tuples across the front entries, stopping at a
    /// punctuation.
    fn join(&mut self, cap: usize) -> TupleBatch {
        let mut batch = Vec::with_capacity(cap.min(self.len));
        while batch.len() < cap {
            match self.entries.front() {
                Some(Entry::Run) => {
                    let run = self.runs.front_mut().expect("a run entry has its run");
                    let k = (cap - batch.len()).min(run.len());
                    batch.extend(run.drain(..k));
                    if run.is_empty() {
                        self.runs.pop_front();
                        self.entries.pop_front();
                    }
                }
                Some(Entry::Item(StreamItem::Tuple(_))) => {
                    let Some(Entry::Item(StreamItem::Tuple(t))) = self.entries.pop_front() else {
                        unreachable!("front was a tuple");
                    };
                    batch.push(t);
                }
                Some(Entry::Item(StreamItem::Punct(_))) | None => break,
            }
        }
        batch.into()
    }

    /// The checkpoint-v2 capture of this queue: byte for byte what
    /// [`crate::codec::encode_queue`] writes for the same items.
    pub fn encode(&self) -> Bytes {
        let mut w = QueueWriter::default();
        let mut runs = self.runs.iter();
        for entry in &self.entries {
            match entry {
                Entry::Item(StreamItem::Tuple(t)) => w.tuple(t),
                Entry::Item(StreamItem::Punct(p)) => w.punct(*p),
                Entry::Run => {
                    let run = runs.next().expect("a run entry has its run");
                    run.iter().for_each(|t| w.tuple(t));
                }
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seq: i64) -> Tuple {
        Tuple::new().with("seq", seq)
    }

    /// `(port, tuples)` of each emission, `None` for a punctuation.
    fn shape(emitted: &[Emission]) -> Vec<(usize, Option<usize>)> {
        emitted
            .iter()
            .map(|e| (e.port(), (e.tuples() > 0).then(|| e.tuples())))
            .collect()
    }

    #[test]
    fn consecutive_tuples_on_one_port_form_one_run() {
        for batching in [true, false] {
            let mut emissions = Emissions {
                list: Vec::new(),
                batching,
            };
            for seq in 0..3 {
                emissions.tuple(0, t(seq));
            }
            emissions.tuple(1, t(3));
            emissions.tuple(0, t(4));
            emissions.punct(0, Punct::Window);
            emissions.tuple(0, t(5));
            emissions.tuple(0, t(6));
            let emitted = emissions.take();
            let want = if batching {
                vec![
                    (0, Some(3)),
                    (1, Some(1)),
                    (0, Some(1)),
                    (0, None),
                    (0, Some(2)),
                ]
            } else {
                let mut one_each = vec![(0, Some(1)); 3];
                one_each.extend([(1, Some(1)), (0, Some(1)), (0, None), (0, Some(1))]);
                one_each.push((0, Some(1)));
                one_each
            };
            assert_eq!(shape(&emitted), want, "batching {batching}");
            // A lone tuple stays inline; only two or more make a run.
            assert!(emitted.iter().all(|e| match e {
                Emission::Run(_, run) => run.len() >= 2,
                Emission::Item(..) => true,
            }));
            let seqs: Vec<i64> = emitted
                .into_iter()
                .flat_map(Emission::into_items)
                .filter_map(|item| match item {
                    StreamItem::Tuple(t) => t.get_int("seq"),
                    StreamItem::Punct(_) => None,
                })
                .collect();
            assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6]);
        }
    }

    #[test]
    fn an_entry_is_the_size_of_an_inline_item() {
        assert_eq!(
            std::mem::size_of::<Entry>(),
            std::mem::size_of::<StreamItem>()
        );
    }

    #[test]
    fn a_run_is_queued_and_handed_on_whole() {
        let run: Vec<Tuple> = (0..4).map(t).collect();
        let buffer = run.as_ptr();
        let mut queue = PortQueue::new();
        queue.push_run(run.into());
        queue.push(StreamItem::Punct(Punct::Final));
        assert_eq!(queue.len(), 5);
        let Some(Popped::Batch(batch)) = queue.pop(4) else {
            panic!("a run that fits pops as a batch");
        };
        assert_eq!(batch.as_slice().as_ptr(), buffer);
        assert_eq!(queue.pop(4), Some(Popped::Punct(Punct::Final)));
        assert_eq!(queue.pop(4), None);
        assert!(queue.is_empty());
    }
}
