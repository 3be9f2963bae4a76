//! The *pipeline* subcontract: promise-returning asynchronous invocation.
//!
//! The paper's §8.4 invites exactly this kind of third-party extension:
//! new invocation semantics delivered as a subcontract, with no stub or
//! base-system changes. A pipeline object is wire-compatible with the
//! other single-door subcontracts — one door identifier, the standard
//! marshalled header — but besides the usual synchronous
//! [`subcontract::Subcontract::invoke`] it offers [`Pipeline::invoke_async`], which
//! returns a [`Promise`] immediately. One thread can therefore issue N
//! calls before collecting any reply, and the network layer (which each
//! call tells how many more are behind it, through
//! [`spring_kernel::CallCtx::company`]) coalesces the overlapping calls
//! into shared wire frames: N latency-bound round trips collapse toward
//! one.
//!
//! Retries ride the same at-most-once machinery as `Reconnectable`: every
//! attempt of one logical call shares a [`spring_kernel::CallId`] nonce and
//! deadline, so the server-side reply cache deduplicates replies lost in
//! flight, and exactly-once-for-success semantics survive pipelining.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use spring_buf::CommBuffer;
use spring_kernel::{Domain, DoorError, DoorId, Message};
use spring_trace::TraceCtx;
use subcontract::{
    client, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId, ServeDoor, SpringError,
    SpringObj,
};

use crate::retry::Invocation;

pub use crate::retry::RetryPolicy;

/// What a pipeline object keeps beside its door: the retry policy the
/// unmarshalling domain's registered instance carried, and the count of
/// calls [`Pipeline::invoke_async`] has issued on this object that no
/// attempt has yet carried into the door. Both are machine-local — they
/// never travel on the wire, so each client retries on its own terms and
/// counts only its own calls.
#[derive(Debug)]
pub struct PipelineState {
    policy: RetryPolicy,
    unsent: Arc<AtomicU32>,
}

impl PipelineState {
    /// The state of a new object: nothing issued on it yet.
    fn fresh(policy: RetryPolicy) -> PipelineState {
        PipelineState {
            policy,
            unsent: Arc::default(),
        }
    }
}

/// One call's view of its object's unsent count, from which each attempt
/// derives the company it reports to the door. An asynchronous call is
/// itself counted from issue until its first attempt; giving the count back
/// is drop-guarded, so a job that dies before attempting cannot leave the
/// transport waiting for a call that will never come.
struct Company {
    unsent: Arc<AtomicU32>,
    counted: bool,
}

impl Company {
    /// The calls, this one included, issued toward the door and not yet
    /// handed to it. The count is a hint that publishes no data, hence
    /// `Relaxed`.
    fn of_attempt(&mut self) -> u32 {
        self.uncount()
            .unwrap_or_else(|| self.unsent.load(Ordering::Relaxed) + 1)
    }

    /// Gives a counted call's unit back, returning the count that still
    /// included it.
    fn uncount(&mut self) -> Option<u32> {
        std::mem::take(&mut self.counted).then(|| self.unsent.fetch_sub(1, Ordering::Relaxed))
    }
}

impl Drop for Company {
    fn drop(&mut self) {
        self.uncount();
    }
}

/// The pipeline subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Pipeline {
    policy: RetryPolicy,
}

impl Pipeline {
    /// The identifier carried in pipeline objects' marshalled form.
    pub const ID: ScId = ScId::from_name("pipeline");

    /// Creates the subcontract instance with the default retry policy.
    pub fn new() -> Arc<Pipeline> {
        Arc::new(Pipeline::default())
    }

    /// Creates the subcontract instance with a custom retry policy.
    pub fn with_policy(policy: RetryPolicy) -> Arc<Pipeline> {
        Arc::new(Pipeline { policy })
    }

    /// Exports an object whose door delivers straight to the skeleton (no
    /// control region; the serve path's reply cache is what makes the
    /// client's retries at-most-once).
    pub fn export(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        let servant = Some(disp.clone());
        let handler = ServeDoor::new(ctx, "pipeline.serve", Self::ID, servant, move |call| {
            call.dispatch(&*disp)
        });
        let door = ctx.domain().create_door(handler)?;
        let sc = ctx.lookup_subcontract(Self::ID)?;
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            sc,
            DoorRepr::of(door, PipelineState::fresh(RetryPolicy::default())),
        ))
    }

    /// Issues a marshalled call asynchronously and returns a [`Promise`]
    /// for the reply. The calling thread does not block: the invocation
    /// (including its whole retry loop) runs on a shared worker pool, and
    /// each call tells the transport how many issued on this object are
    /// still behind it, so overlapping pipelined calls can share wire
    /// frames.
    ///
    /// The object must stay alive until its promises resolve: consuming it
    /// deletes the door the in-flight attempts call through.
    pub fn invoke_async(obj: &SpringObj, call: CommBuffer) -> Result<Promise> {
        if obj.subcontract().id() != Self::ID {
            return Err(SpringError::Unsupported(
                "invoke_async requires a pipeline object",
            ));
        }
        let repr = client::repr::<Pipeline>(obj)?;
        let door = repr.door;
        let policy = repr.state.policy;
        let domain = obj.ctx().domain().clone();
        let parent = spring_trace::current();
        let msg = call.into_message();
        let promise = Promise::new();
        let inner = promise.inner.clone();
        repr.state.unsent.fetch_add(1, Ordering::Relaxed);
        let company = Company {
            unsent: repr.state.unsent.clone(),
            counted: true,
        };
        spawn_job(Box::new(move || {
            let settle = SettleOnDrop(inner);
            let outcome = attempt_loop(&domain, door, policy, parent, msg, company);
            settle.0.fulfill(outcome);
        }));
        Ok(promise)
    }
}

/// Wire-compatible with the other single-door subcontracts: nothing follows
/// the door. What is its own is the call — an attempt loop.
impl DoorSubcontract for Pipeline {
    const ID: ScId = Pipeline::ID;
    const NAME: &'static str = "pipeline";
    type State = PipelineState;

    fn call(&self, obj: &SpringObj, args: CommBuffer) -> Result<CommBuffer> {
        let repr = client::repr::<Self>(obj)?;
        attempt_loop(
            obj.ctx().domain(),
            repr.door,
            repr.state.policy,
            spring_trace::current(),
            args.into_message(),
            Company {
                unsent: repr.state.unsent.clone(),
                counted: false,
            },
        )
        .map(CommBuffer::from_message)
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _buf: &mut CommBuffer) -> Result<PipelineState> {
        Ok(PipelineState::fresh(self.policy))
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, state: &PipelineState) -> Result<PipelineState> {
        Ok(PipelineState::fresh(state.policy))
    }
}

/// One logical call: at-most-once retries sharing a nonce and deadline,
/// with one "pipeline.attempt" span per attempt parented under the caller's
/// span at issue time (the issuing thread's context does not exist on the
/// worker thread, so it travels here explicitly). Every attempt carries
/// its company into the door.
fn attempt_loop(
    domain: &Domain,
    door: DoorId,
    policy: RetryPolicy,
    parent: TraceCtx,
    msg: Message,
    mut company: Company,
) -> Result<Message> {
    let mut inv = Invocation::begin(policy, msg).under(parent);
    loop {
        let outcome = inv.attempt(spring_trace::keys::PIPELINE_ATTEMPT, domain, |attempt| {
            domain.call_in_company(door, attempt, company.of_attempt())
        });
        match outcome {
            Ok(reply) => return Ok(reply),
            Err(e) if e.is_comm_failure() => inv.backoff()?,
            Err(e) => return Err(e.into()),
        }
    }
}

/// The pending result of a pipelined invocation.
///
/// Completion can be observed three ways: poll [`Promise::is_complete`],
/// register an [`Promise::on_ready`] callback, or block in
/// [`Promise::wait`].
pub struct Promise {
    inner: Arc<PromiseInner>,
}

struct PromiseInner {
    done: AtomicBool,
    state: Mutex<PromiseState>,
    cv: Condvar,
}

#[derive(Default)]
struct PromiseState {
    outcome: Option<Result<Message>>,
    wakers: Vec<Box<dyn FnOnce() + Send>>,
}

impl PromiseInner {
    fn fulfill(&self, outcome: Result<Message>) {
        let wakers = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if state.outcome.is_some() || self.done.load(Ordering::Acquire) {
                return;
            }
            state.outcome = Some(outcome);
            self.done.store(true, Ordering::Release);
            self.cv.notify_all();
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker();
        }
    }
}

/// Settles the promise with a comm error if the worker dies before
/// delivering a real outcome (first fulfil wins, so the normal path makes
/// this a no-op).
struct SettleOnDrop(Arc<PromiseInner>);

impl Drop for SettleOnDrop {
    fn drop(&mut self) {
        self.0.fulfill(Err(SpringError::Door(DoorError::Comm(
            "pipelined call aborted".into(),
        ))));
    }
}

impl Promise {
    fn new() -> Promise {
        Promise {
            inner: Arc::new(PromiseInner {
                done: AtomicBool::new(false),
                state: Mutex::new(PromiseState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// True once the outcome is available ([`Promise::wait`] will not
    /// block).
    pub fn is_complete(&self) -> bool {
        self.inner.done.load(Ordering::Acquire)
    }

    /// Registers a callback to run when the outcome arrives; runs
    /// immediately (on the current thread) if it already has.
    pub fn on_ready(&self, waker: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if self.is_complete() {
            drop(state);
            waker();
        } else {
            state.wakers.push(Box::new(waker));
        }
    }

    /// Blocks until the outcome arrives and returns the reply buffer.
    pub fn wait(self) -> Result<CommBuffer> {
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome.map(CommBuffer::from_message);
            }
            state = self.inner.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A small shared worker pool for pipelined invocations.
///
/// Workers are spawned on demand up to a cap, run queued invocation jobs
/// (each job is one logical call's entire retry loop), and exit after a
/// short idle period, so programs that never pipeline pay nothing.
struct Executor {
    queue: Mutex<VecDeque<Job>>,
    arrivals: Condvar,
    idle: AtomicUsize,
    workers: AtomicUsize,
}

type Job = Box<dyn FnOnce() + Send>;

const MAX_WORKERS: usize = 32;
const IDLE_EXIT: Duration = Duration::from_millis(100);

fn executor() -> &'static Executor {
    static EXECUTOR: OnceLock<Executor> = OnceLock::new();
    EXECUTOR.get_or_init(|| Executor {
        queue: Mutex::new(VecDeque::new()),
        arrivals: Condvar::new(),
        idle: AtomicUsize::new(0),
        workers: AtomicUsize::new(0),
    })
}

fn spawn_job(job: Job) {
    let ex = executor();
    ex.queue
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push_back(job);
    if ex.idle.load(Ordering::Relaxed) > 0 {
        ex.arrivals.notify_one();
        return;
    }
    let workers = ex.workers.load(Ordering::Relaxed);
    if workers < MAX_WORKERS
        && ex
            .workers
            .compare_exchange(workers, workers + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    {
        if std::thread::Builder::new()
            .name("pipeline-worker".into())
            .spawn(move || worker_loop(ex))
            .is_err()
        {
            // Could not get a thread: run whatever is queued inline rather
            // than stranding the promise.
            ex.workers.fetch_sub(1, Ordering::Relaxed);
            while let Some(job) = ex
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front()
            {
                job();
            }
        }
    } else {
        ex.arrivals.notify_one();
    }
}

fn worker_loop(ex: &'static Executor) {
    loop {
        let job = {
            let mut queue = ex.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                ex.idle.fetch_add(1, Ordering::Relaxed);
                let (relocked, timeout) = ex
                    .arrivals
                    .wait_timeout(queue, IDLE_EXIT)
                    .unwrap_or_else(|p| p.into_inner());
                queue = relocked;
                ex.idle.fetch_sub(1, Ordering::Relaxed);
                if timeout.timed_out() && queue.is_empty() {
                    break None;
                }
            }
        };
        match job {
            Some(job) => job(),
            None => {
                ex.workers.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}
