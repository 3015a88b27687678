//! The six benchmark systems of Tables 1–3, wired to the §7.1 workload
//! driver.

use std::sync::Arc;

use vyrd_blinktree::{BLinkReplayer, BLinkSpec, BLinkTree, BLinkTreeHandle, BLinkVariant};
use vyrd_core::checker::{Checker, CheckerOptions, SteppingChecker, SteppingFactory};
use vyrd_core::log::EventLog;
use vyrd_core::replay::Replayer;
use vyrd_core::spec::Spec;
use vyrd_core::witness::{
    BasicExplainer, DdminMinimizer, Explainer, LinExplainer, Minimizer, ViewExplainer,
};
use vyrd_core::ObjectId;
use vyrd_javalib::{
    BufferPool, BufferPoolHandle, StringBufferReplayer, StringBufferSpec, StringBufferVariant,
    SyncVector, SyncVectorHandle, VectorReplayer, VectorSpec, VectorVariant,
};
use vyrd_lockfree::{
    MsQueue, MsQueueHandle, QueueSpec, QueueVariant, StackSpec, StackVariant, TreiberStack,
    TreiberStackHandle,
};
use vyrd_multiset::{
    BstMultiset, BstMultisetHandle, BstReplayer, BstVariant, FindSlotVariant, MultisetSpec,
    SlotReplayer, VectorMultiset, VectorMultisetHandle,
};
use vyrd_storage::{
    clean_matches_chunk, entry_in_exactly_one_list, BoxCache, BoxCacheHandle, CacheReplayer,
    CacheVariant, ChunkManager, StoreSpec,
};

use crate::scenario::{CheckKind, Scenario, Variant};
use crate::workload::{OpBudget, ThreadWorkload, WorkloadConfig};

/// All six table rows, in the paper's order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(MultisetVectorScenario),
        Box::new(MultisetBstScenario),
        Box::new(JavaVectorScenario),
        Box::new(StringBufferScenario),
        Box::new(BLinkTreeScenario),
        Box::new(CacheScenario),
    ]
}

/// The lock-free scenario family — atomics-based structures whose
/// commit points are successful CAS instructions. Not part of the
/// paper's six table rows; checkable in `Io` and `Lin` modes (they log
/// no shared-variable writes, so `View` refinement is unsupported and
/// refused with a failed verdict).
pub fn lockfree() -> Vec<Box<dyn Scenario>> {
    vec![Box::new(TreiberStackScenario), Box::new(MsQueueScenario)]
}

/// Looks a scenario up by name, across the table rows ([`all`]) and the
/// lock-free family ([`lockfree`]).
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    all()
        .into_iter()
        .chain(lockfree())
        .find(|s| s.name() == name)
}

/// Spawns `cfg.threads` workload threads plus (optionally) an internal
/// task thread, joining everything before returning.
///
/// Each thread receives an [`OpBudget`] alongside its random stream:
/// closed-loop runs count to `cfg.calls_per_thread`, open-loop runs
/// (`cfg.pace` set) release calls on a fixed arrival schedule until the
/// duration deadline. All budgets share one start instant so the
/// aggregate offered rate is exactly `pace.rate_per_sec`.
fn drive<W, T>(cfg: &WorkloadConfig, per_thread: W, internal_task: Option<T>)
where
    W: Fn(usize, ThreadWorkload, OpBudget) + Send + Sync,
    T: FnMut() + Send,
{
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let task_handle = internal_task.map(|mut task| {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    task();
                    // Internal maintenance runs continuously (§7.1) but
                    // must not monopolize the structure lock; a short
                    // pause keeps the workload, not the maintenance,
                    // dominant — as in the paper's systems.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        });
        let per_thread = &per_thread;
        let workers: Vec<_> = (0..cfg.threads)
            .map(|i| {
                let wl = ThreadWorkload::new(cfg, i);
                let budget = OpBudget::new(cfg, i, start);
                scope.spawn(move || per_thread(i, wl, budget))
            })
            .collect();
        for w in workers {
            w.join().expect("workload thread");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = task_handle {
            h.join().expect("internal task thread");
        }
    });
}

/// The logs [`Scenario::run_multi`] hands its instances: `log` scoped to
/// one [`ObjectId`] per object (§8).
fn object_logs(log: &EventLog, objects: u32) -> Vec<EventLog> {
    (0..objects.max(1))
        .map(|i| log.with_object(ObjectId(i)))
        .collect()
}

/// Runs the workload threads over `instances`, one `step` per budgeted
/// call; `step` is the scenario's op mix, written once for both entry
/// points.
///
/// `per_call` is [`Scenario::run_multi`]'s discipline: every call first
/// draws its instance from the workload stream and takes a handle to it.
/// Without it ([`Scenario::run`]) each thread hoists one handle to the
/// single instance and draws nothing extra, so a seed's op stream is the
/// same through either entry point as before they shared this loop
/// (pinned by `tests/scenario_contract.rs`).
fn drive_calls<T, H, K>(
    cfg: &WorkloadConfig,
    instances: &[T],
    per_call: bool,
    handle: impl Fn(&T) -> H + Sync,
    step: impl Fn(&H, &mut ThreadWorkload, usize) + Sync,
    internal_task: Option<K>,
) where
    T: Sync,
    K: FnMut() + Send,
{
    drive(
        cfg,
        |_, mut wl, ops| {
            if per_call {
                for i in ops {
                    let pick = wl.next_int(instances.len() as i64) as usize;
                    step(&handle(&instances[pick]), &mut wl, i);
                }
            } else {
                let h = handle(&instances[0]);
                for i in ops {
                    step(&h, &mut wl, i);
                }
            }
        },
        internal_task,
    );
}

/// Seeds every instance through a handle of its own. [`Scenario::run`]
/// binds the result and so keeps those handles open to the end of the
/// run: the events left in such a handle's buffer hold the log's lowest
/// sequence numbers, so the merger parks the workload's first batches
/// until its pressure flush, and that first large delivery sizes an
/// in-memory sink's buffer. Dropping them early changes no event, but the
/// sink then grows through other capacities and a recording's speed comes
/// to depend on where the allocator places them (measured: it alternated
/// between two speeds from one recording to the next).
/// [`Scenario::run_multi`] (`per_call`) drops them at once: their batches
/// wait on the log's idle list, the first per-call handles adopt them
/// (oldest first), and they reach a live verifier as soon as they fill,
/// like any other batch — not at a pressure flush.
fn seeded<T, H>(instances: &[T], per_call: bool, handle: fn(&T) -> H, seed: fn(&H)) -> Option<Vec<H>> {
    let handles: Vec<H> = instances.iter().map(handle).inspect(seed).collect();
    (!per_call).then_some(handles)
}

/// An internal task (compressor, flusher) servicing every instance in
/// rotation — with one instance, that instance every time.
fn in_rotation<H: Send>(handles: Vec<H>, service: fn(&H)) -> impl FnMut() + Send {
    let mut next = 0usize;
    move || {
        service(&handles[next % handles.len()]);
        next += 1;
    }
}

fn factory<C: SteppingChecker + 'static>(
    make: impl Fn() -> C + Send + Sync + 'static,
) -> SteppingFactory {
    Arc::new(move |_object| Box::new(make()) as Box<dyn SteppingChecker>)
}

/// `Io` and `Lin` checkers over `spec`; no `View` — the right
/// [`Scenario::checkers`] for structures that log no shared-variable
/// writes, so there is nothing for a replayer to replay.
fn spec_checkers<S: Spec + 'static>(
    kind: CheckKind,
    options: CheckerOptions,
    spec: fn() -> S,
) -> Option<SteppingFactory> {
    match kind {
        CheckKind::Io => Some(factory(move || Checker::io(spec()).with_options(options.clone()))),
        CheckKind::Lin => Some(factory(move || Checker::lin(spec()).with_options(options.clone()))),
        CheckKind::View => None,
    }
}

/// [`spec_checkers`] plus `View` checkers built by `view`, which names
/// the scenario's replayer and invariants.
fn view_checkers<S: Spec + 'static, R: Replayer + 'static>(
    kind: CheckKind,
    options: CheckerOptions,
    spec: fn() -> S,
    view: fn(S) -> Checker<S, R>,
) -> Option<SteppingFactory> {
    match kind {
        CheckKind::View => Some(factory(move || view(spec()).with_options(options.clone()))),
        _ => spec_checkers(kind, options, spec),
    }
}

// ---------------------------------------------------------------------
// Multiset-Vector — "moving acquire in FindSlot" (Fig. 5)
// ---------------------------------------------------------------------

/// The growable multiset with the Fig. 5 `FindSlot` bug.
#[derive(Debug)]
pub struct MultisetVectorScenario;

impl MultisetVectorScenario {
    fn step(h: &VectorMultisetHandle, wl: &mut ThreadWorkload, _call: usize) {
        let op = wl.next_op(&[3, 2, 3, 2]);
        let x = wl.next_key();
        match op {
            0 => {
                h.insert(x);
            }
            1 => {
                h.insert_pair(x, wl.next_key());
            }
            2 => {
                h.delete(x);
            }
            _ => {
                h.lookup(x);
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let fs = match variant {
            Variant::Correct => FindSlotVariant::Correct,
            Variant::Buggy => FindSlotVariant::Buggy,
        };
        let sets: Vec<VectorMultiset> = logs
            .into_iter()
            .map(|log| VectorMultiset::new(fs, log))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles = sets.iter().map(VectorMultiset::handle).collect();
            in_rotation(handles, VectorMultisetHandle::compress)
        });
        drive_calls(cfg, &sets, per_call, VectorMultiset::handle, Self::step, task);
    }
}

impl Scenario for MultisetVectorScenario {
    fn name(&self) -> &'static str {
        "Multiset-Vector"
    }

    fn bug(&self) -> &'static str {
        "Moving acquire in FindSlot"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(kind, options, MultisetSpec::new, |spec| {
            Checker::view(spec, SlotReplayer::new())
        })
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::View => Box::new(ViewExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

// ---------------------------------------------------------------------
// Multiset-BinaryTree — "unlocking parent before insertion"
// ---------------------------------------------------------------------

/// The BST multiset with the lost-insert bug.
#[derive(Debug)]
pub struct MultisetBstScenario;

impl MultisetBstScenario {
    fn step(h: &BstMultisetHandle, wl: &mut ThreadWorkload, _call: usize) {
        let op = wl.next_op(&[5, 2, 3]);
        let x = wl.next_key();
        match op {
            0 => {
                h.insert(x);
            }
            1 => {
                h.delete(x);
            }
            _ => {
                h.lookup(x);
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => BstVariant::Correct,
            Variant::Buggy => BstVariant::UnlockParentEarly,
        };
        let sets: Vec<BstMultiset> = logs
            .into_iter()
            .map(|log| BstMultiset::new(v, log))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles = sets.iter().map(BstMultiset::handle).collect();
            in_rotation(handles, BstMultisetHandle::compress)
        });
        drive_calls(cfg, &sets, per_call, BstMultiset::handle, Self::step, task);
    }
}

impl Scenario for MultisetBstScenario {
    fn name(&self) -> &'static str {
        "Multiset-BinaryTree"
    }

    fn bug(&self) -> &'static str {
        "Unlocking parent before insertion"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(kind, options, MultisetSpec::new, |spec| {
            Checker::view(spec, BstReplayer::new())
        })
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::View => Box::new(ViewExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

// ---------------------------------------------------------------------
// java.util.Vector — "taking length non-atomically in lastIndexOf()"
// ---------------------------------------------------------------------

/// The synchronized vector with the observer-side bug.
#[derive(Debug)]
pub struct JavaVectorScenario;

impl JavaVectorScenario {
    fn step(h: &SyncVectorHandle, wl: &mut ThreadWorkload, _call: usize) {
        match wl.next_op(&[4, 3, 3, 1]) {
            0 => h.add(wl.next_key()),
            1 => {
                h.remove_last();
            }
            2 => {
                h.last_index_of(wl.next_key());
            }
            _ => {
                h.size();
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => VectorVariant::Correct,
            Variant::Buggy => VectorVariant::Buggy,
        };
        let vecs: Vec<SyncVector> = logs
            .into_iter()
            .map(|log| SyncVector::new(v, log))
            .collect();
        // Seed so early removeLast/lastIndexOf have content to race on.
        let _seeders = seeded(&vecs, per_call, SyncVector::handle, |seeder| {
            for i in 0..8 {
                seeder.add(i);
            }
        });
        drive_calls(cfg, &vecs, per_call, SyncVector::handle, Self::step, None::<fn()>);
    }
}

impl Scenario for JavaVectorScenario {
    fn name(&self) -> &'static str {
        "Vector"
    }

    fn bug(&self) -> &'static str {
        "Taking length non-atomically in lastIndexOf()"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(kind, options, VectorSpec::new, |spec| {
            Checker::view(spec, VectorReplayer::new())
        })
    }
}

// ---------------------------------------------------------------------
// java.util.StringBuffer — "copying from an unprotected StringBuffer"
// ---------------------------------------------------------------------

const SB_BUFFERS: usize = 4;

/// The string-buffer pool with the unprotected-copy bug.
#[derive(Debug)]
pub struct StringBufferScenario;

impl StringBufferScenario {
    fn step(h: &BufferPoolHandle, wl: &mut ThreadWorkload, _call: usize) {
        let op = wl.next_op(&[3, 4, 3, 1]);
        let id = wl.next_int(SB_BUFFERS as i64);
        match op {
            0 => h.append(id, "ab"),
            1 => {
                h.append_buffer(id, wl.next_int(SB_BUFFERS as i64));
            }
            2 => h.set_length(id, wl.next_int(12) as usize),
            _ => {
                h.length(id);
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => StringBufferVariant::Correct,
            Variant::Buggy => StringBufferVariant::Buggy,
        };
        let pools: Vec<BufferPool> = logs
            .into_iter()
            .map(|log| BufferPool::new(SB_BUFFERS, v, log))
            .collect();
        let _seeders = seeded(&pools, per_call, BufferPool::handle, |seeder| {
            for id in 0..SB_BUFFERS as i64 {
                seeder.append(id, "0123456789");
            }
        });
        drive_calls(cfg, &pools, per_call, BufferPool::handle, Self::step, None::<fn()>);
    }
}

impl Scenario for StringBufferScenario {
    fn name(&self) -> &'static str {
        "StringBuffer"
    }

    fn bug(&self) -> &'static str {
        "Copying from an unprotected StringBuffer"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(
            kind,
            options,
            || StringBufferSpec::new(SB_BUFFERS),
            |spec| Checker::view(spec, StringBufferReplayer::with_buffers(SB_BUFFERS)),
        )
    }
}

// ---------------------------------------------------------------------
// BLinkTree — "allowing duplicated data nodes"
// ---------------------------------------------------------------------

/// The B-link tree with the duplicate-data-node bug.
#[derive(Debug)]
pub struct BLinkTreeScenario;

impl BLinkTreeScenario {
    fn step(h: &BLinkTreeHandle, wl: &mut ThreadWorkload, call: usize) {
        let op = wl.next_op(&[5, 2, 3]);
        let k = wl.next_key();
        match op {
            0 => h.insert(k, call as i64),
            1 => {
                h.delete(k);
            }
            _ => {
                h.lookup(k);
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => BLinkVariant::Correct,
            Variant::Buggy => BLinkVariant::DuplicateDataNodes,
        };
        let trees: Vec<BLinkTree> = logs
            .into_iter()
            .map(|log| BLinkTree::new(v, log))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles = trees.iter().map(BLinkTree::handle).collect();
            in_rotation(handles, BLinkTreeHandle::compress)
        });
        drive_calls(cfg, &trees, per_call, BLinkTree::handle, Self::step, task);
    }
}

impl Scenario for BLinkTreeScenario {
    fn name(&self) -> &'static str {
        "BLinkTree"
    }

    fn bug(&self) -> &'static str {
        "Allowing duplicated data nodes"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(kind, options, BLinkSpec::new, |spec| {
            Checker::view(spec, BLinkReplayer::new())
        })
    }
}

// ---------------------------------------------------------------------
// Cache — "writing an unprotected dirty cache entry"
// ---------------------------------------------------------------------

const CACHE_HANDLES: i64 = 6;
const CACHE_BUF: usize = 64;

/// The Boxwood cache with the §7.2.2 bug.
#[derive(Debug)]
pub struct CacheScenario;

impl CacheScenario {
    fn step(h: &BoxCacheHandle, wl: &mut ThreadWorkload, call: usize) {
        let op = wl.next_op(&[6, 3, 1]);
        let handle = wl.next_int(CACHE_HANDLES);
        match op {
            0 => h.write(handle, vec![(call % 251) as u8; CACHE_BUF]),
            1 => {
                h.read(handle);
            }
            _ => h.revoke(handle),
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => CacheVariant::Correct,
            Variant::Buggy => CacheVariant::Buggy,
        };
        // One cache (over its own chunk group) per log.
        let caches: Vec<BoxCache> = logs
            .into_iter()
            .map(|log| BoxCache::new(ChunkManager::new(), v, log))
            .collect();
        // The flusher plays the internal-task role; without it the bug
        // cannot manifest, so it always runs.
        let flusher = in_rotation(
            caches.iter().map(BoxCache::handle).collect(),
            BoxCacheHandle::flush,
        );
        drive_calls(cfg, &caches, per_call, BoxCache::handle, Self::step, Some(flusher));
    }
}

impl Scenario for CacheScenario {
    fn name(&self) -> &'static str {
        "Cache"
    }

    fn bug(&self) -> &'static str {
        "Writing an unprotected dirty cache entry"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        view_checkers(kind, options, StoreSpec::new, |spec| {
            Checker::view(spec, CacheReplayer::new())
                .with_invariant(clean_matches_chunk())
                .with_invariant(entry_in_exactly_one_list())
        })
    }
}

// ---------------------------------------------------------------------
// Lock-free family — Treiber stack & Michael–Scott queue
// ---------------------------------------------------------------------

const LF_CAPACITY: usize = 64;

/// Parks a victim `Pop` inside its ABA window and recycles the node it
/// read underneath it: pop both elements, push two fresh values — the
/// old top slot comes back as the new top, the victim's index-only
/// compare succeeds against it, and its stale commit is one the LIFO
/// specification rejects. Runs before the workload threads start, so
/// the buggy variant's first violation lands at a fixed log position
/// regardless of the workload seed.
fn aba_prologue(stack: &TreiberStack) {
    let h = stack.handle();
    h.push(1);
    h.push(2);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(std::sync::Barrier::new(2));
    {
        let gate = Arc::clone(&gate);
        let release = Arc::clone(&release);
        stack.arm_pop_hook(Box::new(move || {
            gate.wait();
            release.wait();
        }));
    }
    let victim = {
        let h = stack.handle();
        std::thread::spawn(move || h.pop())
    };
    gate.wait();
    h.pop();
    h.pop();
    h.push(7);
    h.push(8);
    release.wait();
    victim.join().expect("victim pop thread");
}

/// The Treiber stack with the seeded ABA bug.
#[derive(Debug)]
pub struct TreiberStackScenario;

impl TreiberStackScenario {
    fn step(h: &TreiberStackHandle, wl: &mut ThreadWorkload, _call: usize) {
        match wl.next_op(&[4, 3, 3]) {
            0 => {
                h.push(wl.next_key());
            }
            1 => {
                h.pop();
            }
            _ => {
                h.peek();
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => StackVariant::Correct,
            Variant::Buggy => StackVariant::AbaPop,
        };
        let stacks: Vec<TreiberStack> = logs
            .into_iter()
            .map(|log| TreiberStack::new(v, LF_CAPACITY, log))
            .collect();
        // On the first object only, so exactly one shard carries the
        // seeded violation.
        if variant == Variant::Buggy {
            aba_prologue(&stacks[0]);
        }
        drive_calls(cfg, &stacks, per_call, TreiberStack::handle, Self::step, None::<fn()>);
    }
}

impl Scenario for TreiberStackScenario {
    fn name(&self) -> &'static str {
        "Treiber-Stack"
    }

    fn bug(&self) -> &'static str {
        "ABA head CAS in Pop (untagged)"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        spec_checkers(kind, options, StackSpec::new)
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::Lin => Box::new(LinExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

/// Parks a victim `Enqueue` after its premature tail swing (and commit)
/// but before the predecessor link, enqueues behind it, and observes the
/// unreachable front: the dequeue commits an "empty" result while the
/// specification says the queue holds two elements. Runs before the
/// workload threads start, so the buggy variant's first violation lands
/// at a fixed log position regardless of the workload seed.
fn tail_swing_prologue(queue: &MsQueue) {
    let h = queue.handle();
    let gate = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(std::sync::Barrier::new(2));
    {
        let gate = Arc::clone(&gate);
        let release = Arc::clone(&release);
        queue.arm_enqueue_hook(Box::new(move || {
            gate.wait();
            release.wait();
        }));
    }
    let victim = {
        let h = queue.handle();
        std::thread::spawn(move || h.enqueue(5))
    };
    gate.wait();
    h.enqueue(6);
    h.dequeue();
    release.wait();
    victim.join().expect("victim enqueue thread");
}

/// The Michael–Scott queue with the seeded tail-swing bug.
#[derive(Debug)]
pub struct MsQueueScenario;

impl MsQueueScenario {
    fn step(h: &MsQueueHandle, wl: &mut ThreadWorkload, _call: usize) {
        match wl.next_op(&[4, 3, 3]) {
            0 => {
                h.enqueue(wl.next_key());
            }
            1 => {
                h.dequeue();
            }
            _ => {
                h.front();
            }
        }
    }

    fn workload(cfg: &WorkloadConfig, logs: Vec<EventLog>, variant: Variant, per_call: bool) {
        let v = match variant {
            Variant::Correct => QueueVariant::Correct,
            Variant::Buggy => QueueVariant::EarlyTailSwing,
        };
        let queues: Vec<MsQueue> = logs
            .into_iter()
            .map(|log| MsQueue::new(v, LF_CAPACITY, log))
            .collect();
        // On the first object only, so exactly one shard carries the
        // seeded violation.
        if variant == Variant::Buggy {
            tail_swing_prologue(&queues[0]);
        }
        drive_calls(cfg, &queues, per_call, MsQueue::handle, Self::step, None::<fn()>);
    }
}

impl Scenario for MsQueueScenario {
    fn name(&self) -> &'static str {
        "MS-Queue"
    }

    fn bug(&self) -> &'static str {
        "Non-atomic tail swing in Enqueue"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        Self::workload(cfg, vec![log.clone()], variant, false);
    }

    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        Self::workload(cfg, object_logs(log, objects), variant, true);
        true
    }

    fn checkers(&self, kind: CheckKind, options: CheckerOptions) -> Option<SteppingFactory> {
        spec_checkers(kind, options, QueueSpec::new)
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::Lin => Box::new(LinExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}
