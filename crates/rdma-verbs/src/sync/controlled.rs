//! The test half of the `sync` seam, and the scheduler it defers to.
//!
//! Every name here passes straight through to `parking_lot` or `std` on
//! a thread outside a controlled run. A run executes a scenario's
//! actors, each on a thread of its own, one at a time (the token is a
//! std mutex): before each lock, atomic access, notify and spin, the
//! running actor asks the scheduler who runs next. [`explore`] runs
//! every schedule within a [`Bound`] by a stateless depth-first search:
//! each run replays the last one's choices up to the deepest one with an
//! untried alternative, and takes it, so nothing is hashed. Time is
//! virtual and moves only by a choice: a spin may give up (its free
//! choice), and a timed wait times out once nothing else can run. A run
//! in which every unfinished actor is blocked fails as a deadlock,
//! printed with its schedule.

use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::atomic::{self, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

/// How far a spin that gives up moves the clock: past any spin.
const SPIN_ENDS: Duration = Duration::from_millis(1);
/// Steps one run may take before it fails as a livelock.
const MAX_STEPS: usize = 100_000;
/// `Sched::turn` once a run failed.
const FAILED: usize = usize::MAX;

type Site = &'static Location<'static>;
type Guard = MutexGuard<'static, State>;

thread_local! {
    /// The run this thread acts in, and its actor index there.
    static ACTOR: Cell<Option<(&'static Sched, usize)>> = const { Cell::new(None) };
}

fn actor() -> Option<(&'static Sched, usize)> {
    ACTOR.with(Cell::get)
}

/// A scheduling point before `op`, if the caller is an actor.
#[track_caller]
fn point(op: &'static str) {
    if let Some((sched, me)) = actor() {
        drop(sched.pass(me, sched.state(), Kind::Go, op, Location::caller()));
    }
}

/// Unwinds an actor of a failed run, which acts in no run from here on.
fn abort(st: Guard) -> ! {
    drop(st);
    ACTOR.set(None);
    panic::resume_unwind(Box::new(Aborted))
}

struct Aborted;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    Run,
    /// Waiting to take the lock at this address.
    Lock(usize),
    /// On condition variable `cv`, to take `lock` again once notified, or
    /// once the clock reaches `until`.
    Wait {
        cv: usize,
        lock: usize,
        until: Option<Duration>,
    },
    Done,
}

/// The actor at a scheduling point goes on with an operation (which is
/// free; a switch counts), spins (giving up is free; a switch counts),
/// or is blocked or finished.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Go,
    Spin,
    Block,
}

/// How many context switches a schedule may make beyond the free ones.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Bound {
    /// At most `k` preemptions: a switch away from an actor that could go
    /// on counts, and when the running actor blocks, any actor may run
    /// next for free (iterative context bounding: CHESS, Musuvathi and
    /// Qadeer, PLDI 2007).
    Preemptions(usize),
    /// At most `k` switches of any kind but the handoff a round-robin
    /// scheduler makes when the running actor blocks, to the next actor
    /// in index order that can run (delay bounding: Emmi, Qadeer and
    /// Rakamarić, POPL 2011). Free handoffs multiply with every actor;
    /// this bound reaches many.
    Switches(usize),
}

#[derive(Default)]
struct State {
    status: Vec<Status>,
    /// `(lock, holder)` for every lock an actor holds.
    held: Vec<(usize, usize)>,
    clock: Duration,
    bound: usize,
    /// A choice at a blocked actor's point is free (`Preemptions`).
    free_handoffs: bool,
    switches: usize,
    /// `(options, chosen)` at each point: to make again, and made.
    replay: Vec<(usize, usize)>,
    points: Vec<(usize, usize)>,
    /// Every operation in the order it ran, for the report.
    log: Vec<(usize, &'static str, Site)>,
    failure: Option<String>,
    /// Runs started (`u64::MAX`: the search is over), and actors done
    /// with the current one.
    run: u64,
    acked: usize,
}

struct Sched {
    state: StdMutex<State>,
    /// The actor whose turn it is, or `FAILED`; written under `state`.
    turn: atomic::AtomicUsize,
    /// One per actor: its turn came, a run started, or the run failed.
    turns: Vec<StdCondvar>,
    /// Every actor is done with the run.
    ended: StdCondvar,
    /// The spinner count `threaded` reads in a run instead of the
    /// process-wide one, so no other test's thread changes what it does.
    spinners: AtomicUsize,
    base: std::time::Instant,
}

impl State {
    fn free(&self, lock: usize) -> bool {
        self.held.iter().all(|h| h.0 != lock)
    }

    /// Who may run after actor `me` (`usize::MAX`: at the start), the free
    /// choice first, and whether running it is a timeout.
    fn options(&self, me: usize, kind: Kind) -> Vec<(usize, bool)> {
        let n = self.status.len();
        let mut options = match kind {
            Kind::Go => vec![(me, false)],
            Kind::Spin => vec![(me, true)],
            Kind::Block => Vec::new(),
        };
        for t in (1..=n).map(|d| if me < n { (me + d) % n } else { d - 1 }) {
            let enabled = match self.status[t] {
                Status::Run => true,
                Status::Lock(lock) => self.free(lock),
                _ => false,
            };
            if t != me && enabled {
                options.push((t, false));
            }
        }
        let stuck = options.is_empty();
        for (t, &status) in self.status.iter().enumerate() {
            if let Status::Wait { lock, until, .. } = status {
                if stuck && until.is_some() && self.free(lock) {
                    options.push((t, true));
                }
            }
        }
        options
    }

    /// What the failing schedule did, one line per actor's run of steps.
    fn report(&self, what: &str) -> String {
        let (steps, switches) = (self.log.len(), self.switches);
        let mut out = format!(
            "{what} after {steps} steps with {switches} switches beyond the free ones; schedule:"
        );
        let mut last = usize::MAX;
        for &(t, op, at) in &self.log {
            if t != last {
                let _ = write!(out, "\n  actor {t}:");
                last = t;
            }
            let file = at.file().rsplit('/').next().unwrap_or_default();
            let _ = write!(out, " {op}@{file}:{}", at.line());
        }
        for (t, status) in self.status.iter().enumerate() {
            let _ = write!(out, "\n  actor {t} ends {status:?}");
        }
        out
    }
}

impl Sched {
    fn state(&'static self) -> Guard {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A scheduling point: picks who runs next, lets it run, and returns
    /// once it is `me`'s turn again (at once if `me` goes on).
    fn pass(
        &'static self,
        me: usize,
        mut st: Guard,
        kind: Kind,
        op: &'static str,
        at: Site,
    ) -> Guard {
        let options = st.options(me, kind);
        if st.log.len() >= MAX_STEPS {
            return self.fail(me, st, "livelock");
        } else if options.is_empty() && st.status.iter().all(|&s| s == Status::Done) {
            return st;
        } else if options.is_empty() {
            return self.fail(me, st, "deadlock");
        }
        let free = kind == Kind::Block && st.free_handoffs;
        let open = free || st.switches < st.bound;
        let allowed = if open { options.len() } else { 1 };
        let replayed = st.replay.get(st.points.len()).copied();
        assert!(
            replayed.is_none_or(|(was, _)| was == allowed),
            "the scenario is not deterministic"
        );
        let chosen = replayed.map_or(0, |(_, chosen)| chosen);
        st.points.push((allowed, chosen));
        st.switches += usize::from(!free && chosen > 0);
        let (next, times_out) = options[chosen];
        if let (true, Status::Wait { lock, until, .. }) = (times_out, st.status[next]) {
            st.status[next] = Status::Lock(lock);
            st.clock = st.clock.max(until.expect("only a timed wait times out"));
        } else if times_out {
            st.clock += SPIN_ENDS;
        }
        self.turn.store(next, Ordering::Release);
        self.turns[next].notify_one();
        if me == usize::MAX || st.status[me] == Status::Done {
            return st;
        }
        let mut st = self.await_turn(me, st);
        if st.failure.is_some() {
            abort(st);
        }
        st.log.push((me, op, at));
        st
    }

    /// Fails the run with `what` and ends every actor: `me` unwinds too,
    /// unless it has finished.
    fn fail(&'static self, me: usize, mut st: Guard, what: &str) -> Guard {
        if st.failure.is_none() {
            st.failure = Some(st.report(what));
        }
        self.turn.store(FAILED, Ordering::Release);
        self.turns.iter().for_each(StdCondvar::notify_all);
        if st.status[me] != Status::Done {
            abort(st);
        }
        st
    }

    /// Returns once it is `me`'s turn or the run failed. A handoff yields
    /// for a while before it sleeps: a woken thread takes far longer to
    /// run than one that is awake.
    fn await_turn(&'static self, me: usize, mut st: Guard) -> Guard {
        let waiting = || !matches!(self.turn.load(Ordering::Acquire), t if t == me || t == FAILED);
        if waiting() {
            drop(st);
            for _ in 0..200 {
                if !waiting() {
                    break;
                }
                std::thread::yield_now();
            }
            st = self.state();
        }
        while waiting() {
            st = self.turns[me].wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    fn lock(&'static self, me: usize, lock: usize, at: Site) {
        let mut st = self.pass(me, self.state(), Kind::Go, "lock", at);
        if !st.free(lock) {
            st.status[me] = Status::Lock(lock);
            st = self.pass(me, st, Kind::Block, "locked", at);
        }
        st.status[me] = Status::Run;
        st.held.push((lock, me));
    }

    fn unlock(&'static self, lock: usize) {
        self.state().held.retain(|h| h.0 != lock);
    }

    /// Gives `lock` up, waits on `cv` until notified or timed out, and
    /// takes `lock` again.
    fn wait(&'static self, me: usize, cv: usize, lock: usize, timeout: Option<Duration>, at: Site) {
        let mut st = self.state();
        st.held.retain(|h| h.0 != lock);
        let until = timeout.map(|t| st.clock.saturating_add(t));
        st.status[me] = Status::Wait { cv, lock, until };
        let mut st = self.pass(me, st, Kind::Block, "woken", at);
        st.status[me] = Status::Run;
        st.held.push((lock, me));
    }

    /// Wakes every waiter on `cv`: a `notify_one` that wakes more is a
    /// spurious wake-up, which every condition-variable wait allows.
    fn notify(&'static self, me: usize, cv: usize, at: Site) {
        let mut st = self.pass(me, self.state(), Kind::Go, "notify", at);
        for status in st.status.iter_mut() {
            if let Status::Wait { cv: on, lock, .. } = *status {
                if on == cv {
                    *status = Status::Lock(lock);
                }
            }
        }
    }

    /// Runs `body` as actor `me` of the current run.
    fn act(&'static self, me: usize, body: impl FnOnce()) {
        ACTOR.set(Some((self, me)));
        let started = self.await_turn(me, self.state()).failure.is_none();
        let result = started.then(|| panic::catch_unwind(AssertUnwindSafe(body)));
        ACTOR.set(None);
        let mut st = self.state();
        st.status[me] = Status::Done;
        match result {
            Some(Ok(())) => drop(self.pass(me, st, Kind::Block, "end", Location::caller())),
            Some(Err(e)) if !e.is::<Aborted>() => {
                let why = (e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| e.downcast_ref::<String>().cloned());
                let why = format!("actor {me} panicked: {}", why.unwrap_or_default());
                drop(self.fail(me, st, &why));
            }
            _ => {}
        }
    }

    /// Waits for the run after `run`; false once the search is over.
    fn next_run(&'static self, me: usize, run: &mut u64) -> bool {
        let mut st = self.state();
        while st.run == *run {
            st = self.turns[me].wait(st).unwrap_or_else(|e| e.into_inner());
        }
        *run = st.run;
        st.run != u64::MAX
    }
}

/// The spinner count and limit of the calling thread's run, if it acts
/// in one: a run lets one actor spin.
pub(crate) fn run_spinners() -> Option<(&'static AtomicUsize, usize)> {
    actor().map(|(sched, _)| (&sched.spinners, 1))
}

/// Runs `actors`, each on a thread of its own, over every schedule
/// within `bound`, each run on a world fresh from `setup` (built and
/// dropped outside the run). Returns how many schedules ran, or the
/// first failing one.
pub(crate) fn explore<W: Send + Sync>(
    bound: Bound,
    setup: impl Fn() -> W,
    actors: &[&(dyn Fn(&W) + Sync)],
) -> Result<u64, String> {
    let n = actors.len();
    let (bound, free_handoffs) = match bound {
        Bound::Preemptions(k) => (k, true),
        Bound::Switches(k) => (k, false),
    };
    let state = State {
        bound,
        free_handoffs,
        ..State::default()
    };
    let sched: &'static Sched = Box::leak(Box::new(Sched {
        state: StdMutex::new(state),
        turn: atomic::AtomicUsize::new(0),
        turns: (0..n).map(|_| StdCondvar::new()).collect(),
        ended: StdCondvar::new(),
        spinners: AtomicUsize::new(0),
        base: std::time::Instant::now(),
    }));
    // The actors' threads live for the whole search and take each run's
    // world from here.
    let world = StdMutex::new(None::<Arc<W>>);
    let world_now = || world.lock().unwrap().clone().expect("a run has a world");
    std::thread::scope(|s| {
        for (me, body) in actors.iter().enumerate() {
            s.spawn(move || {
                let mut run = 0;
                while sched.next_run(me, &mut run) {
                    let w = world_now();
                    sched.act(me, || body(&w));
                    drop(w);
                    sched.state().acked += 1;
                    sched.ended.notify_one();
                }
            });
        }
        let result = (1..).find_map(|schedules| {
            *world.lock().unwrap() = Some(Arc::new(setup()));
            sched.spinners.0.store(0, Ordering::Relaxed);
            let mut st = sched.state();
            st.status = vec![Status::Run; n];
            (st.clock, st.switches, st.acked) = (Duration::ZERO, 0, 0);
            st.log.clear();
            // Who starts is a choice too.
            let mut st = sched.pass(usize::MAX, st, Kind::Block, "start", Location::caller());
            st.run += 1;
            sched.turns.iter().for_each(StdCondvar::notify_all);
            while st.acked < n {
                st = sched.ended.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if let Some(failure) = st.failure.take() {
                return Some(Err(failure));
            }
            let mut points = std::mem::take(&mut st.points);
            while let Some((options, chosen)) = points.pop() {
                if chosen + 1 < options {
                    points.push((options, chosen + 1));
                    st.replay = points;
                    return None;
                }
            }
            Some(Ok(schedules))
        });
        *world.lock().unwrap() = None;
        sched.state().run = u64::MAX;
        sched.turns.iter().for_each(StdCondvar::notify_all);
        result.expect("the search ends")
    })
}

fn addr<T>(x: &T) -> usize {
    x as *const T as usize
}

/// `parking_lot::Mutex`; in a run, a lock the scheduler hands out.
pub(crate) struct Mutex<T>(parking_lot::Mutex<T>);

pub(crate) struct Locked<'a, T> {
    mutex: &'a Mutex<T>,
    /// `None` while a condition-variable wait has given the lock up.
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    sched: Option<&'static Sched>,
}

impl<T> Mutex<T> {
    pub(crate) const fn new(value: T) -> Self {
        Mutex(parking_lot::Mutex::new(value))
    }

    #[track_caller]
    pub(crate) fn lock(&self) -> Locked<'_, T> {
        let at = Location::caller();
        let sched = actor().map(|(sched, me)| {
            sched.lock(me, addr(self), at);
            sched
        });
        let inner = Some(self.0.lock());
        Locked {
            mutex: self,
            inner,
            sched,
        }
    }
}

impl<T> std::ops::Deref for Locked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("the lock is held")
    }
}

impl<T> std::ops::DerefMut for Locked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("the lock is held")
    }
}

impl<T> Drop for Locked<'_, T> {
    fn drop(&mut self) {
        if let (Some(_), Some(sched)) = (self.inner.take(), self.sched) {
            sched.unlock(addr(self.mutex));
        }
    }
}

/// `parking_lot::Condvar`; in a run, one the scheduler wakes.
pub(crate) struct Condvar(parking_lot::Condvar);

impl Condvar {
    pub(crate) const fn new() -> Self {
        Condvar(parking_lot::Condvar::new())
    }

    #[track_caller]
    pub(crate) fn notify_one(&self) {
        match actor() {
            Some((sched, me)) => sched.notify(me, addr(self), Location::caller()),
            None => self.0.notify_one(),
        }
    }

    #[track_caller]
    pub(crate) fn notify_all(&self) {
        match actor() {
            Some((sched, me)) => sched.notify(me, addr(self), Location::caller()),
            None => self.0.notify_all(),
        }
    }

    #[track_caller]
    pub(crate) fn wait<T>(&self, guard: &mut Locked<'_, T>) {
        self.wait_up_to(guard, None);
    }

    #[track_caller]
    pub(crate) fn wait_for<T>(&self, guard: &mut Locked<'_, T>, timeout: Duration) {
        self.wait_up_to(guard, Some(timeout));
    }

    #[track_caller]
    fn wait_up_to<T>(&self, guard: &mut Locked<'_, T>, timeout: Option<Duration>) {
        if let (Some(sched), Some((_, me))) = (guard.sched, actor()) {
            guard.inner = None;
            let lock = addr(guard.mutex);
            sched.wait(me, addr(self), lock, timeout, Location::caller());
            guard.inner = Some(guard.mutex.0.lock());
        } else if let (Some(inner), Some(t)) = (guard.inner.as_mut(), timeout) {
            let _ = self.0.wait_for(inner, t);
        } else {
            self.0.wait(guard.inner.as_mut().expect("the lock is held"));
        }
    }
}

macro_rules! atomic {
    ($name:ident, $t:ty $(, $op:ident)*) => {
        /// The `std` atomic; in a run, each access is a scheduling point.
        pub(crate) struct $name(atomic::$name);

        impl $name {
            pub(crate) const fn new(v: $t) -> Self {
                $name(atomic::$name::new(v))
            }

            #[track_caller]
            pub(crate) fn load(&self, order: Ordering) -> $t {
                point("load");
                self.0.load(order)
            }

            $(
                #[track_caller]
                pub(crate) fn $op(&self, v: $t, order: Ordering) -> $t {
                    point(stringify!($op));
                    self.0.$op(v, order)
                }
            )*
        }
    };
}

atomic!(AtomicBool, bool);
atomic!(AtomicU64, u64, fetch_add);
atomic!(AtomicUsize, usize, fetch_add, fetch_sub);

impl AtomicBool {
    #[track_caller]
    pub(crate) fn store(&self, v: bool, order: Ordering) {
        point("store");
        self.0.store(v, order);
    }
}

/// `std::time::Instant`; in a run, read from the run's clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Instant(std::time::Instant);

impl Instant {
    pub(crate) fn now() -> Instant {
        Instant(match actor() {
            Some((sched, _)) => sched.base + sched.state().clock,
            None => std::time::Instant::now(),
        })
    }

    pub(crate) fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d).map(Instant)
    }

    pub(crate) fn saturating_duration_since(self, earlier: Instant) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d)
    }
}

/// `std::hint::spin_loop`; in a run, a spin that may give up.
#[track_caller]
pub(crate) fn spin_loop() {
    match actor() {
        Some((sched, me)) => {
            drop(sched.pass(me, sched.state(), Kind::Spin, "spin", Location::caller()))
        }
        None => std::hint::spin_loop(),
    }
}
