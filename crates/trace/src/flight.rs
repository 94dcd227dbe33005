//! The flight recorder: an always-on bounded ring of recent events.
//!
//! A [`FlightRing`] is a [`Sink`] holding the last `capacity` events
//! recorded on one thread. Serve workers install one at startup and
//! leave it running for the life of the thread — the cost per event is
//! one uncontended mutex lock and a `VecDeque` push (the ring is
//! pre-sized, so the steady state never allocates), and threads that
//! never install a ring pay nothing at all.
//!
//! Every ring registers itself in a process-wide table of weak
//! references, so a crash-path observer (governor trip, worker panic,
//! shed) can call [`snapshot_all`] from *any* thread and get a
//! consistent copy of what every live ring held at that moment —
//! without draining them and without stopping the recorded threads.
//! Rings whose threads have exited are pruned lazily.

use crate::event::Event;
use crate::json::{ToJson, Writer};
use crate::sink::Sink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A bounded ring of the most recent events recorded on one thread.
pub struct FlightRing {
    thread: String,
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    /// Events displaced because the ring was full (monotone).
    dropped: AtomicU64,
}

impl FlightRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRing {
            thread: std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string(),
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Name of the thread this ring records (at installation time).
    pub fn thread_name(&self) -> &str {
        &self.thread
    }

    /// Copies the ring's current contents without draining it.
    pub fn snapshot(&self) -> ThreadFlight {
        let events: Vec<Event> = match self.buf.lock() {
            Ok(buf) => buf.iter().cloned().collect(),
            Err(poisoned) => poisoned.into_inner().iter().cloned().collect(),
        };
        ThreadFlight {
            thread: self.thread.clone(),
            dropped: self.dropped.load(Ordering::Relaxed),
            events,
        }
    }
}

impl Sink for FlightRing {
    fn record(&self, event: &Event) {
        let mut buf = match self.buf.lock() {
            Ok(buf) => buf,
            Err(poisoned) => poisoned.into_inner(),
        };
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }

    fn flush(&self) {}
}

/// One thread's contribution to a flight dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadFlight {
    /// Name of the recorded thread.
    pub thread: String,
    /// Events the ring displaced before this snapshot (monotone).
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
}

/// Renders as `{"thread":…,"dropped":N,"events":[…]}`.
impl ToJson for ThreadFlight {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("thread", &self.thread)
                .field("dropped", self.dropped)
                .field("events", &self.events);
        });
    }
}

fn registry() -> &'static Mutex<Vec<Weak<FlightRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<FlightRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Keeps a thread's flight ring installed (as a trace sink and in the
/// global registry) until dropped.
#[must_use = "dropping the guard uninstalls the flight recorder"]
pub struct FlightGuard {
    ring: Arc<FlightRing>,
    sink_id: crate::collector::SinkId,
}

impl FlightGuard {
    /// The ring this guard keeps alive.
    pub fn ring(&self) -> &Arc<FlightRing> {
        &self.ring
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        crate::collector::remove_sink(self.sink_id);
        // The registry holds only a Weak; dropping our Arc is enough for
        // the next snapshot/enable to prune the dead entry.
    }
}

/// Installs a flight ring of `capacity` events on the current thread.
///
/// The ring records every event the thread emits (it is an ordinary
/// sink, so [`crate::enabled`] becomes true) and is visible to
/// [`snapshot_all`] until the returned guard drops.
pub fn enable(capacity: usize) -> FlightGuard {
    let ring = Arc::new(FlightRing::new(capacity));
    let sink_id = crate::collector::add_sink(ring.clone() as Arc<dyn Sink>);
    let mut reg = match registry().lock() {
        Ok(reg) => reg,
        Err(poisoned) => poisoned.into_inner(),
    };
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(&ring));
    drop(reg);
    FlightGuard { ring, sink_id }
}

/// Snapshots every live flight ring in the process, oldest-installed
/// first. Rings whose threads have exited are pruned.
pub fn snapshot_all() -> Vec<ThreadFlight> {
    let rings: Vec<Arc<FlightRing>> = {
        let mut reg = match registry().lock() {
            Ok(reg) => reg,
            Err(poisoned) => poisoned.into_inner(),
        };
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    rings.iter().map(|r| r.snapshot()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn msg(text: &str) -> EventKind {
        EventKind::Message { text: text.into() }
    }

    #[test]
    fn ring_is_bounded_and_counts_displacement() {
        let ring = FlightRing::new(3);
        for i in 0..5 {
            ring.record(&Event {
                t_us: i,
                request_id: None,
                kind: msg(&format!("m{i}")),
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.dropped, 2);
        let texts: Vec<&str> = snap
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Message { text } => text.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(texts, ["m2", "m3", "m4"], "oldest events displaced first");
    }

    #[test]
    fn snapshot_does_not_drain() {
        let ring = FlightRing::new(4);
        ring.record(&Event {
            t_us: 1,
            request_id: None,
            kind: msg("keep"),
        });
        assert_eq!(ring.snapshot().events.len(), 1);
        assert_eq!(ring.snapshot().events.len(), 1);
    }

    #[test]
    fn enable_records_emits_and_registry_sees_the_ring() {
        let before = snapshot_all().len();
        let t = std::thread::Builder::new()
            .name("flight-test".into())
            .spawn(|| {
                let guard = enable(8);
                crate::emit(|| msg("in-flight"));
                let snaps = snapshot_all();
                let mine = snaps
                    .iter()
                    .find(|s| s.thread == "flight-test")
                    .expect("own ring visible globally");
                assert_eq!(mine.events.len(), 1);
                assert!(mine.events[0].to_json().contains("in-flight"));
                drop(guard);
            })
            .expect("spawn");
        t.join().expect("join");
        // The guard dropped with the thread; the registry prunes it.
        let after = snapshot_all();
        assert_eq!(after.len(), before);
        assert!(after.iter().all(|s| s.thread != "flight-test"));
    }

    #[test]
    fn thread_flight_renders_json() {
        let tf = ThreadFlight {
            thread: "w\"0".into(),
            dropped: 7,
            events: vec![Event {
                t_us: 3,
                request_id: None,
                kind: msg("x"),
            }],
        };
        assert_eq!(
            crate::json::render(&tf),
            "{\"thread\":\"w\\\"0\",\"dropped\":7,\
             \"events\":[{\"event\":\"message\",\"t_us\":3,\"text\":\"x\"}]}"
        );
    }
}
