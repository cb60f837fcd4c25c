//! The process allocator: per-thread size-class free lists over `System`.
//!
//! Every binary and test links this crate, so this is the allocator of every
//! process the repository builds. A quantum allocates and frees bursts of
//! same-size blocks (rows, value vectors, frames); glibc's per-size cache
//! holds seven, and the rest of a burst takes its slow path. Here a request
//! of at most `MAX_SMALL` bytes, aligned to at most `CLASS`, is served from
//! a thread's LIFO list for its size class, refilled from a shared `Depot`
//! and then by carving `CHUNK`-byte chunks taken from `System`.
//! Larger or over-aligned requests go to `System` unchanged.
//!
//! - A block's class is a function of its `Layout` alone, so a block carries
//!   no header, and every small block is a whole class wherever it came from.
//! - A free block's first word links to the next free block of its list; a
//!   list's first block, while the list sits in the depot, links the next
//!   list through its second word.
//! - A thread's state is const-initialised `Cell`s with no destructor, so the
//!   hot path allocates nothing and never lazily initialises.
//! - On a thread's first refill a guard is registered whose destructor gives
//!   the thread's lists and the rest of its chunk to the depot; a block freed
//!   after that, by a later thread-local destructor, goes to the depot too.
//!   Chunks are never returned to `System`.
//!
//! The allocator decides where a block lives, never what the program asks
//! for: the simulation makes the same requests in the same order with it or
//! without it. [`requests`] counts them per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The step between size classes, and the alignment every small block has.
const CLASS: usize = 16;
/// The number of size classes.
const CLASSES: usize = 32;
/// The largest request served from the free lists.
const MAX_SMALL: usize = CLASS * CLASSES;
/// The bytes taken from `System` whenever a thread's chunk runs out.
const CHUNK: usize = 64 << 10;

/// The allocator every binary in the workspace links.
struct Allocator;

#[global_allocator]
static GLOBAL: Allocator = Allocator;

/// Heap requests made by the calling thread so far: each `alloc`,
/// `alloc_zeroed` and `realloc` counts once, whatever its size and whether
/// or not a `realloc` moves the block.
pub fn requests() -> u64 {
    LOCAL.with(|l| l.requests.get())
}

/// A free block. Every small block holds at least these two words.
#[repr(C)]
struct Free {
    /// The next block of the same list.
    next: *mut Free,
    /// In the depot, on a list's first block only: the next list.
    lists: *mut Free,
}

/// A chunk's uncarved rest, given to the depot by an exiting thread.
#[repr(C)]
struct Spare {
    end: *mut u8,
    next: *mut Spare,
}

/// The index of the class that serves `layout`, or `None` for `System`.
fn class_of(layout: Layout) -> Option<usize> {
    if layout.size() <= MAX_SMALL && layout.align() <= CLASS {
        Some(layout.size().max(1).div_ceil(CLASS) - 1)
    } else {
        None
    }
}

/// The size of a block of class `c`.
fn block_size(c: usize) -> usize {
    (c + 1) * CLASS
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// No refill yet, so no flush guard.
    Fresh,
    /// The flush guard is registered.
    Guarded,
    /// The guard has run: lists and chunk are the depot's.
    Flushed,
}

/// One thread's allocator state.
struct Local {
    free: [Cell<*mut Free>; CLASSES],
    /// The uncarved part of the thread's current chunk: `[bump, end)`.
    bump: Cell<*mut u8>,
    end: Cell<*mut u8>,
    phase: Cell<Phase>,
    requests: Cell<u64>,
    chunks: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            free: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            bump: Cell::new(ptr::null_mut()),
            end: Cell::new(ptr::null_mut()),
            phase: Cell::new(Phase::Fresh),
            requests: Cell::new(0),
            chunks: Cell::new(0),
        }
    };
    static FLUSH: FlushGuard = const { FlushGuard };
}

/// Gives the thread's lists and chunk to the depot when the thread exits.
struct FlushGuard;

impl Drop for FlushGuard {
    fn drop(&mut self) {
        let _ = LOCAL.try_with(Local::flush);
    }
}

impl Local {
    fn count(&self) {
        self.requests.set(self.requests.get() + 1);
    }

    /// A block of class `c` from this thread, or null if `System` has none.
    ///
    /// # Safety
    /// The lists and chunk hold only blocks this module put there, which no
    /// one else uses.
    unsafe fn alloc(&self, c: usize) -> *mut u8 {
        let head = self.free[c].get();
        if !head.is_null() {
            // SAFETY: a block on a list is free and at least two words long,
            // and its first word was written when it was pushed.
            self.free[c].set(unsafe { (*head).next });
            return head.cast();
        }
        // SAFETY: the caller's guarantee, passed on.
        unsafe { self.refill(c) }
    }

    /// Puts a block of class `c` on this thread's list.
    ///
    /// # Safety
    /// `block` is a free block of class `c` that no one else holds.
    unsafe fn push(&self, c: usize, block: *mut u8) {
        let block: *mut Free = block.cast();
        // SAFETY: the block is ours, writable and at least one word long.
        unsafe { (*block).next = self.free[c].get() };
        self.free[c].set(block);
    }

    /// The slow path of [`Local::alloc`]: a list from the depot, else a
    /// block carved from the thread's chunk.
    ///
    /// # Safety
    /// As for [`Local::alloc`].
    #[cold]
    unsafe fn refill(&self, c: usize) -> *mut u8 {
        match self.phase.get() {
            // SAFETY: the caller's guarantee, passed on.
            Phase::Flushed => return unsafe { depot_alloc(c) },
            Phase::Fresh => {
                // The phase moves first: registering the guard may allocate,
                // which comes back here with the state whole.
                self.phase.set(Phase::Guarded);
                let _ = FLUSH.try_with(|_| ());
            }
            Phase::Guarded => {}
        }
        if stocked(c) {
            let list = depot().take_list(c);
            if !list.is_null() {
                // SAFETY: a list the depot hands out is the caller's alone,
                // and its blocks are free blocks of class `c`.
                self.free[c].set(unsafe { (*list).next });
                return list.cast();
            }
        }
        let size = block_size(c);
        if (self.end.get() as usize) - (self.bump.get() as usize) < size {
            // SAFETY: `[bump, end)` is this thread's uncarved chunk.
            if !unsafe { self.next_chunk() } {
                return ptr::null_mut();
            }
        }
        let block = self.bump.get();
        // SAFETY: at least `size` bytes remain before `end`, in one chunk.
        self.bump.set(unsafe { block.add(size) });
        block
    }

    /// Takes the uncarved rest of the thread's chunk out of its hands. A
    /// rest that a block could fill becomes one, on the list of its class; a
    /// longer one is returned, for the depot.
    ///
    /// # Safety
    /// `[bump, end)` is the thread's uncarved chunk, a multiple of [`CLASS`]
    /// bytes long.
    unsafe fn retire_rest(&self) -> Option<(*mut u8, *mut u8)> {
        let (bump, end) = (
            self.bump.replace(ptr::null_mut()),
            self.end.replace(ptr::null_mut()),
        );
        let rest = (end as usize) - (bump as usize);
        if rest > MAX_SMALL {
            return Some((bump, end));
        }
        if rest >= CLASS {
            // SAFETY: the rest is free, ours, `CLASS`-aligned and at most
            // `MAX_SMALL` long, so it is a whole block of class
            // `rest / CLASS - 1`.
            unsafe { self.push(rest / CLASS - 1, bump) };
        }
        None
    }

    /// Replaces the thread's chunk, keeping the old one's rest as a block of
    /// the class it fills. `false` if `System` is out of memory.
    ///
    /// # Safety
    /// `[bump, end)` is the thread's uncarved chunk, a multiple of
    /// [`CLASS`] bytes long, shorter than the block it could not serve.
    unsafe fn next_chunk(&self) -> bool {
        // SAFETY: the caller's guarantee; the rest is shorter than a block,
        // so it is never returned.
        let _ = unsafe { self.retire_rest() };
        let spare = if stocked(CLASSES) {
            depot().take_spare()
        } else {
            None
        };
        let (bump, end) = match spare {
            Some(spare) => spare,
            None => {
                let layout =
                    Layout::from_size_align(CHUNK, CLASS).expect("a chunk's layout is valid");
                // SAFETY: `CHUNK` is not zero.
                let chunk = unsafe { System.alloc(layout) };
                if chunk.is_null() {
                    return false;
                }
                self.chunks.set(self.chunks.get() + 1);
                // SAFETY: `chunk` is `CHUNK` bytes long.
                (chunk, unsafe { chunk.add(CHUNK) })
            }
        };
        self.bump.set(bump);
        self.end.set(end);
        true
    }

    /// Gives every list and the rest of the chunk to the depot. Allocation
    /// on this thread goes to the depot from here on.
    fn flush(&self) {
        self.phase.set(Phase::Flushed);
        // SAFETY: `[bump, end)` is the thread's uncarved chunk.
        let spare = unsafe { self.retire_rest() };
        let mut depot = depot();
        for (c, head) in self.free.iter().enumerate() {
            // SAFETY: the list is this thread's and goes nowhere else.
            unsafe { depot.put_list(c, head.replace(ptr::null_mut())) };
        }
        if let Some((bump, end)) = spare {
            // SAFETY: the range is uncarved chunk, longer than any block,
            // and no longer the thread's.
            unsafe { depot.put_spare(bump, end) };
        }
    }
}

/// Lists and chunk rests whose threads have exited, for any thread to take.
struct Depot {
    /// Per class, a stack of lists linked through their first blocks.
    lists: [*mut Free; CLASSES],
    spares: *mut Spare,
}

// SAFETY: the depot owns the free blocks it points to. No thread holds one
// while it is there, and the depot is reached only through its mutex.
unsafe impl Send for Depot {}

static DEPOT: Mutex<Depot> = Mutex::new(Depot {
    lists: [ptr::null_mut(); CLASSES],
    spares: ptr::null_mut(),
});

/// Bit `c` set: the depot holds a list of class `c`; bit [`CLASSES`]: a
/// spare. Written under the depot's lock and read without it, so a stale
/// bit costs at most a lock taken in vain or a block carved instead of
/// reused. It publishes nothing: the lock orders the blocks themselves.
static STOCKED: AtomicU64 = AtomicU64::new(0);

fn stocked(bit: usize) -> bool {
    STOCKED.load(Ordering::Relaxed) & (1 << bit) != 0
}

fn depot() -> std::sync::MutexGuard<'static, Depot> {
    // No code that holds the lock can panic, so a poisoned depot is whole.
    DEPOT.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Depot {
    fn mark(&self, bit: usize, full: bool) {
        let mask = STOCKED.load(Ordering::Relaxed) & !(1 << bit);
        STOCKED.store(mask | (u64::from(full) << bit), Ordering::Relaxed);
    }

    /// Pushes a list of class `c`; a null `list` is no list.
    ///
    /// # Safety
    /// `list` is a list of free blocks of class `c` that no one else holds.
    unsafe fn put_list(&mut self, c: usize, list: *mut Free) {
        if list.is_null() {
            return;
        }
        // SAFETY: the list's first block is free and ours.
        unsafe { (*list).lists = self.lists[c] };
        self.lists[c] = list;
        self.mark(c, true);
    }

    /// Pops a whole list of class `c`, or null.
    fn take_list(&mut self, c: usize) -> *mut Free {
        let list = self.lists[c];
        if !list.is_null() {
            // SAFETY: a list in the depot has a first block with both words.
            self.lists[c] = unsafe { (*list).lists };
            self.mark(c, !self.lists[c].is_null());
        }
        list
    }

    /// Pops one block of class `c`, or null.
    fn take_block(&mut self, c: usize) -> *mut u8 {
        let list = self.take_list(c);
        if !list.is_null() {
            // SAFETY: `list` was just taken, so its blocks are ours; the rest
            // of it goes back as a list.
            unsafe { self.put_list(c, (*list).next) };
        }
        list.cast()
    }

    /// Keeps `[bump, end)` for a later thread's chunk.
    ///
    /// # Safety
    /// The range is uncarved chunk that no one else holds, `CLASS`-aligned
    /// and longer than [`MAX_SMALL`], so it serves any block.
    unsafe fn put_spare(&mut self, bump: *mut u8, end: *mut u8) {
        let spare: *mut Spare = bump.cast();
        // SAFETY: the range is ours, `CLASS`-aligned and holds a `Spare`.
        unsafe {
            spare.write(Spare {
                end,
                next: self.spares,
            })
        };
        self.spares = spare;
        self.mark(CLASSES, true);
    }

    fn take_spare(&mut self) -> Option<(*mut u8, *mut u8)> {
        if self.spares.is_null() {
            return None;
        }
        let spare = self.spares;
        // SAFETY: a spare in the depot starts with the `Spare` written by
        // `put_spare`.
        let Spare { end, next } = unsafe { spare.read() };
        self.spares = next;
        self.mark(CLASSES, !next.is_null());
        Some((spare.cast(), end))
    }
}

/// A block of class `c` for a thread whose lists are gone: one from the
/// depot, or a whole-class block from `System`.
///
/// # Safety
/// Only for small blocks, which are freed through this module.
unsafe fn depot_alloc(c: usize) -> *mut u8 {
    let block = depot().take_block(c);
    if !block.is_null() {
        return block;
    }
    let layout = Layout::from_size_align(block_size(c), CLASS).expect("a class's layout is valid");
    // SAFETY: a class's size is not zero.
    unsafe { System.alloc(layout) }
}

/// Frees a block of class `c` into the depot, as a list of one.
///
/// # Safety
/// `block` is a free block of class `c` that no one else holds.
unsafe fn depot_free(c: usize, block: *mut u8) {
    let block: *mut Free = block.cast();
    // SAFETY: the block is ours and at least two words long.
    unsafe { (*block).next = ptr::null_mut() };
    // SAFETY: a one-block list of class `c`, ours.
    unsafe { depot().put_list(c, block) };
}

/// A small block of class `c` for this thread.
///
/// # Safety
/// Only for small blocks, which are freed through this module.
unsafe fn small_alloc(c: usize) -> *mut u8 {
    // SAFETY: blocks of class `c` come from and go back to this module only.
    match LOCAL.try_with(|l| unsafe { l.alloc(c) }) {
        Ok(block) => block,
        // SAFETY: as above.
        Err(_) => unsafe { depot_alloc(c) },
    }
}

/// Frees a small block of class `c`.
///
/// # Safety
/// `block` came from [`small_alloc`] with class `c` and is freed once.
unsafe fn small_free(c: usize, block: *mut u8) {
    let kept = LOCAL.try_with(|l| {
        let live = l.phase.get() != Phase::Flushed;
        if live {
            // SAFETY: the caller's guarantee, passed on.
            unsafe { l.push(c, block) };
        }
        live
    });
    if kept != Ok(true) {
        // SAFETY: the caller's guarantee, passed on.
        unsafe { depot_free(c, block) };
    }
}

fn count() {
    let _ = LOCAL.try_with(Local::count);
}

// SAFETY: a small block is a whole class (`block_size(c)` bytes, `CLASS`-
// aligned) carved from a chunk of its own or taken from `System` with that
// layout, and sits on at most one list, the depot included, while it is
// free; `class_of` sends a block back to the lists it came from because it
// is a function of the layout the caller must pass back. Everything else is
// `System`'s, with the caller's arguments.
unsafe impl GlobalAlloc for Allocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        match class_of(layout) {
            // SAFETY: a small layout's block is freed through `dealloc`.
            Some(c) => unsafe { small_alloc(c) },
            // SAFETY: the caller's obligations on `layout` are passed on.
            None => unsafe { System.alloc(layout) },
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        match class_of(layout) {
            Some(c) => {
                // SAFETY: as in `alloc`.
                let block = unsafe { small_alloc(c) };
                if !block.is_null() {
                    // SAFETY: the block holds at least `layout.size()` bytes.
                    unsafe { block.write_bytes(0, layout.size()) };
                }
                block
            }
            // SAFETY: as in `alloc`.
            None => unsafe { System.alloc_zeroed(layout) },
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match class_of(layout) {
            // SAFETY: `ptr` came from this allocator with `layout`, so from
            // class `c`.
            Some(c) => unsafe { small_free(c, ptr) },
            // SAFETY: `ptr` came from `System` with `layout`.
            None => unsafe { System.dealloc(ptr, layout) },
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `new_size`, rounded up to the
        // alignment, does not overflow `isize`.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        let (old_class, new_class) = (class_of(layout), class_of(new));
        if old_class.is_none() && new_class.is_none() {
            // SAFETY: `ptr` came from `System` with `layout`.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        if old_class.is_some() && old_class == new_class {
            return ptr;
        }
        let moved = match new_class {
            // SAFETY: as in `alloc`.
            Some(c) => unsafe { small_alloc(c) },
            // SAFETY: `new` has a non-zero size.
            None => unsafe { System.alloc(new) },
        };
        if !moved.is_null() {
            // SAFETY: both blocks hold the shorter length, and distinct
            // blocks do not overlap; `ptr` is then freed once, as it came.
            unsafe {
                ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    /// Held by the tests that follow a block through the depot, and by the
    /// model, which asks for every class: no test thread here takes a list
    /// from the depot while another follows it.
    static DEPOT_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        DEPOT_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Chunks the calling thread has taken from `System`.
    fn chunks_carved() -> u64 {
        LOCAL.with(|l| l.chunks.get())
    }

    #[derive(Clone, Debug)]
    enum Op {
        Alloc(usize, usize),
        Zeroed(usize, usize),
        Realloc(usize, usize),
        Free(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let size = || 1usize..=1100;
        let align = || (0u32..=6).prop_map(|k| 1usize << k);
        prop_oneof![
            3 => (size(), align()).prop_map(|(s, a)| Op::Alloc(s, a)),
            1 => (size(), align()).prop_map(|(s, a)| Op::Zeroed(s, a)),
            2 => (any::<usize>(), size()).prop_map(|(i, s)| Op::Realloc(i, s)),
            3 => any::<usize>().prop_map(Op::Free),
        ]
    }

    /// A live block of the model, filled with bytes that start at `tag`.
    struct Block {
        ptr: *mut u8,
        layout: Layout,
        tag: u8,
    }

    fn byte(tag: u8, i: usize) -> u8 {
        tag.wrapping_add(i as u8)
    }

    fn fill(b: &Block) {
        for i in 0..b.layout.size() {
            // SAFETY: the block is live and `layout.size()` bytes long.
            unsafe { b.ptr.add(i).write(byte(b.tag, i)) };
        }
    }

    /// The first `len` bytes of `b`, as read back.
    fn read(b: &Block, len: usize) -> Vec<u8> {
        // SAFETY: the block is live and at least `len` bytes long.
        (0..len).map(|i| unsafe { b.ptr.add(i).read() }).collect()
    }

    fn pattern(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| byte(tag, i)).collect()
    }

    fn alloc(size: usize, align: usize, zeroed: bool) -> Block {
        let layout = Layout::from_size_align(size, align).unwrap();
        // SAFETY: `size` is at least one.
        let ptr = unsafe {
            if zeroed {
                GLOBAL.alloc_zeroed(layout)
            } else {
                GLOBAL.alloc(layout)
            }
        };
        assert!(!ptr.is_null(), "{layout:?}: out of memory");
        Block {
            ptr,
            layout,
            tag: 0,
        }
    }

    fn free(b: Block) {
        // SAFETY: `b` is live and came from `GLOBAL` with `b.layout`.
        unsafe { GLOBAL.dealloc(b.ptr, b.layout) };
    }

    /// Every live block is aligned, holds its own bytes, and overlaps no
    /// other.
    fn check(live: &[Block]) {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for b in live {
            assert_eq!(
                b.ptr as usize % b.layout.align(),
                0,
                "{:?} misaligned",
                b.layout
            );
            assert_eq!(read(b, b.layout.size()), pattern(b.tag, b.layout.size()));
            spans.push((b.ptr as usize, b.ptr as usize + b.layout.size()));
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "blocks {pair:x?} overlap");
        }
    }

    proptest! {
        /// The allocator against a model of what the caller may rely on:
        /// alignment, disjoint live blocks, zeroed memory, and a `realloc`
        /// that keeps the shorter prefix, over sizes on both sides of the
        /// small-block ceiling and alignments on both sides of `CLASS`.
        #[test]
        fn blocks_keep_their_bytes_and_never_overlap(
            ops in prop::collection::vec(arb_op(), 1..160)
        ) {
            let _serial = serial();
            let mut live: Vec<Block> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                let tag = step as u8;
                match op {
                    Op::Alloc(size, align) | Op::Zeroed(size, align) => {
                        let zeroed = matches!(op, Op::Zeroed(..));
                        let mut b = alloc(size, align, zeroed);
                        if zeroed {
                            assert!(read(&b, size).iter().all(|&x| x == 0), "{size}: not zeroed");
                        }
                        b.tag = tag;
                        fill(&b);
                        live.push(b);
                    }
                    Op::Realloc(i, size) if !live.is_empty() => {
                        let mut b = live.swap_remove(i % live.len());
                        let kept = b.layout.size().min(size);
                        // SAFETY: `b` is live, came from `GLOBAL` with
                        // `b.layout`, and `size` is at least one.
                        b.ptr = unsafe { GLOBAL.realloc(b.ptr, b.layout, size) };
                        assert!(!b.ptr.is_null(), "realloc to {size}: out of memory");
                        assert_eq!(read(&b, kept), pattern(b.tag, kept), "realloc lost the prefix");
                        b.layout = Layout::from_size_align(size, b.layout.align()).unwrap();
                        b.tag = tag;
                        fill(&b);
                        live.push(b);
                    }
                    Op::Free(i) if !live.is_empty() => free(live.swap_remove(i % live.len())),
                    Op::Realloc(..) | Op::Free(_) => {}
                }
                check(&live);
            }
            live.into_iter().for_each(free);
        }
    }

    #[test]
    fn requests_count_alloc_zeroed_and_realloc_once_each() {
        let before = requests();
        let b = alloc(40, 8, false);
        let z = alloc(4000, 8, true);
        // SAFETY: `b` is live with this layout; 48 is not zero.
        let p = unsafe { GLOBAL.realloc(b.ptr, b.layout, 48) };
        assert_eq!(p, b.ptr, "a realloc within one class stays put");
        free(Block {
            ptr: p,
            layout: Layout::from_size_align(48, 8).unwrap(),
            tag: 0,
        });
        free(z);
        assert_eq!(requests() - before, 3);
    }

    /// A chunk's rest that a block fills becomes that block; only a longer
    /// one is left for the depot, so a spare serves any request.
    #[test]
    fn a_chunks_rest_is_a_block_or_a_spare_for_any_block() {
        for (rest, spare) in [
            (0, false),
            (16, false),
            (496, false),
            (512, false),
            (528, true),
        ] {
            let local = Local {
                free: [const { Cell::new(ptr::null_mut()) }; CLASSES],
                bump: Cell::new(ptr::null_mut()),
                end: Cell::new(ptr::null_mut()),
                phase: Cell::new(Phase::Guarded),
                requests: Cell::new(0),
                chunks: Cell::new(0),
            };
            let region = Layout::from_size_align(rest.max(CLASS), CLASS).unwrap();
            // SAFETY: the size is not zero.
            let base = unsafe { System.alloc(region) };
            local.bump.set(base);
            // SAFETY: `rest` is within the region.
            local.end.set(unsafe { base.add(rest) });
            // SAFETY: `[bump, end)` is a `CLASS`-aligned range of `rest` bytes
            // that only `local` uses.
            let kept = unsafe { local.retire_rest() };
            assert_eq!(kept.is_some(), spare, "a rest of {rest} bytes");
            assert!(local.bump.get().is_null() && local.end.get().is_null());
            for (c, head) in local.free.iter().enumerate() {
                let expected = !spare && rest > 0 && block_size(c) == rest;
                assert_eq!(
                    head.get() == base.cast(),
                    expected,
                    "{rest} bytes, class {c}"
                );
            }
            // SAFETY: `base` came from `System` with `region`.
            unsafe { System.dealloc(base, region) };
        }
    }

    #[test]
    fn a_block_freed_on_another_thread_is_reused_there() {
        const SIZE: usize = 200;
        let sent = thread::spawn(|| alloc(SIZE, 8, false).ptr as usize)
            .join()
            .unwrap();
        let layout = Layout::from_size_align(SIZE, 8).unwrap();
        free(Block {
            ptr: sent as *mut u8,
            layout,
            tag: 0,
        });
        let again = alloc(SIZE, 8, false);
        assert_eq!(
            again.ptr as usize, sent,
            "the freeing thread's list serves it next"
        );
        free(again);
    }

    #[test]
    fn an_exited_threads_blocks_serve_the_next_thread_through_the_depot() {
        // 481..=496 bytes: a class the rest of this crate's tests, but the
        // serialised model, never ask for.
        let _serial = serial();
        const SIZE: usize = 490;
        const N: usize = 64;
        let first = thread::spawn(|| {
            let mut blocks = [0usize; N];
            for b in &mut blocks {
                *b = alloc(SIZE, 16, false).ptr as usize;
            }
            for &b in &blocks {
                free(Block {
                    ptr: b as *mut u8,
                    layout: Layout::from_size_align(SIZE, 16).unwrap(),
                    tag: 0,
                });
            }
            blocks
        })
        .join()
        .unwrap();
        let (second, carved) = thread::spawn(|| {
            let mut blocks = [0usize; N];
            for b in &mut blocks {
                *b = alloc(SIZE, 16, false).ptr as usize;
            }
            (blocks, chunks_carved())
        })
        .join()
        .unwrap();
        let (mut first, mut second) = (first, second);
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(
            first, second,
            "the second thread got the first one's blocks"
        );
        assert_eq!(carved, 0, "and carved no chunk for them");
    }

    #[test]
    fn a_block_freed_after_the_flush_goes_to_the_depot() {
        // 449..=464 bytes: another class, under the same terms.
        let _serial = serial();
        const SIZE: usize = 460;
        thread_local! {
            static HELD: Cell<usize> = const { Cell::new(0) };
            static LATE: Late = const { Late };
        }
        /// Frees `HELD` when the thread's locals are torn down.
        struct Late;
        impl Drop for Late {
            fn drop(&mut self) {
                free(Block {
                    ptr: HELD.get() as *mut u8,
                    layout: Layout::from_size_align(SIZE, 16).unwrap(),
                    tag: 0,
                });
            }
        }
        let freed = thread::spawn(|| {
            // `Late` is registered before this thread's first refill
            // registers the flush guard, so it is torn down after it.
            LATE.with(|_| ());
            let b = alloc(SIZE, 16, false).ptr as usize;
            HELD.set(b);
            b
        })
        .join()
        .unwrap();
        let depot = depot();
        let c = class_of(Layout::from_size_align(SIZE, 16).unwrap()).unwrap();
        let mut found = false;
        let mut list = depot.lists[c];
        while !list.is_null() && !found {
            let mut block = list;
            while !block.is_null() && !found {
                found = block as usize == freed;
                // SAFETY: the depot's blocks are free and linked, and the
                // lock is held.
                block = unsafe { (*block).next };
            }
            // SAFETY: as above.
            list = unsafe { (*list).lists };
        }
        assert!(found, "the late free reached the depot");
    }
}
