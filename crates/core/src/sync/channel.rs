//! Cooperative MPMC channels (bounded and unbounded).
//!
//! Channels are the communication backbone of the runtimes built on USF (ready-task queues,
//! request queues of the microservices workload). Blocked senders/receivers release their
//! virtual core, which matters when producers and consumers are oversubscribed.

use crate::park::WaitQueue;
use parking_lot::{Mutex as RawMutex, MutexGuard as RawGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and every sender has been
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is full.
    Full(T),
    /// Every receiver has been dropped.
    Disconnected(T),
}

/// Error returned by [`Receiver::try_recv`] and [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
    send_waiters: WaitQueue,
    recv_waiters: WaitQueue,
}

struct Chan<T> {
    state: RawMutex<ChanState<T>>,
}

type Guard<'a, T> = RawGuard<'a, ChanState<T>>;

impl<T> Chan<T> {
    /// Pop the oldest value and hand the freed slot to the longest-blocked sender; every
    /// path that takes a single value goes through here. Gives the guard back if empty.
    fn take(mut st: Guard<'_, T>) -> Result<T, Guard<'_, T>> {
        let Some(v) = st.queue.pop_front() else {
            return Err(st);
        };
        let sender = st.send_waiters.pop();
        drop(st);
        if let Some(w) = sender {
            w.wake();
        }
        Ok(v)
    }

    /// Push `value` and wake the longest-blocked receiver; every send path goes through
    /// here. Gives the guard and the value back if the channel is full.
    fn put(mut st: Guard<'_, T>, value: T) -> Result<(), (Guard<'_, T>, T)> {
        if st.capacity.is_some_and(|c| st.queue.len() >= c) {
            return Err((st, value));
        }
        st.queue.push_back(value);
        let receiver = st.recv_waiters.pop();
        drop(st);
        if let Some(w) = receiver {
            w.wake();
        }
        Ok(())
    }
}

/// Create a bounded channel with the given capacity (`capacity >= 1`).
///
/// # Panics
/// Panics if `capacity == 0` (use [`unbounded`] for an unbounded channel).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    make_channel(Some(capacity))
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make_channel(None)
}

fn make_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: RawMutex::new(ChanState {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
            send_waiters: WaitQueue::default(),
            recv_waiters: WaitQueue::default(),
        }),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Sending half of a channel. Cloneable (MPMC).
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of a channel. Cloneable (MPMC).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            let receivers = st.recv_waiters.take_all();
            drop(st);
            receivers.wake_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            let senders = st.send_waiters.take_all();
            drop(st);
            senders.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Send a value, blocking cooperatively while the channel is full.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        loop {
            let st = self.chan.state.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            let mut st = match Chan::put(st, value) {
                Ok(()) => return Ok(()),
                Err((st, v)) => {
                    value = v;
                    st
                }
            };
            let w = st.send_waiters.enqueue();
            drop(st);
            w.wait();
        }
    }

    /// Try to send without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let st = self.chan.state.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        Chan::put(st, value).map_err(|(_, v)| TrySendError::Full(v))
    }

    /// Number of values currently queued (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// Whether the queue is currently empty (diagnostic; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receive a value, blocking cooperatively while the channel is empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            let mut st = match Chan::take(self.chan.state.lock()) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if st.senders == 0 {
                return Err(RecvError);
            }
            let w = st.recv_waiters.enqueue();
            drop(st);
            w.wait();
        }
    }

    /// Try to receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match Chan::take(self.chan.state.lock()) {
            Ok(v) => Ok(v),
            Err(st) if st.senders == 0 => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut st = match Chan::take(self.chan.state.lock()) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            if Instant::now() >= deadline {
                return Err(TryRecvError::Empty);
            }
            let w = st.recv_waiters.enqueue();
            drop(st);
            let chan = &self.chan.state;
            if let Err(st) = WaitQueue::wait_until(w, deadline, chan, |st| &mut st.recv_waiters) {
                // Timed out: a last look under the lock that took us off the queue.
                return Chan::take(st).map_err(|_| TryRecvError::Empty);
            }
        }
    }

    /// Number of values currently queued (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// Whether the queue is currently empty (diagnostic; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every value currently in the channel without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.chan.state.lock();
        let out: Vec<T> = st.queue.drain(..).collect();
        let senders = st.send_waiters.take_all();
        drop(st);
        senders.wake_all();
        out
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").field("len", &self.len()).finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
impl<T> Receiver<T> {
    /// Number of receivers queued on the channel.
    pub(crate) fn waiter_count(&self) -> usize {
        self.chan.state.lock().recv_waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_blocks_sender_until_drained() {
        let (tx, rx) = channel(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        let h = std::thread::spawn(move || {
            tx.send(3).unwrap();
            tx.len()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        h.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<i32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<i32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = unbounded::<i32>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(TryRecvError::Empty)
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(9));
    }

    #[test]
    fn mpmc_all_values_delivered_exactly_once() {
        let (tx, rx) = channel::<u32>(4);
        let mut producers = Vec::new();
        for p in 0..3u32 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u32> = (0..3u32)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn cooperative_pipeline_on_one_core() {
        // Producer and consumer share one virtual core; the channel's blocking operations
        // must hand the core back and forth.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("chan-test");
        let (tx, rx) = channel::<usize>(1);
        let consumer = p.spawn(move || {
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            sum
        });
        let producer = p.spawn(move || {
            for i in 0..20 {
                tx.send(i).unwrap();
            }
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (0..20).sum::<usize>());
        usf.shutdown();
    }

    #[test]
    fn recv_timeout_that_takes_a_value_wakes_a_blocked_sender() {
        // One core, channel(1). R1 blocks in recv(); R2 waits in recv_timeout(10 ms); S
        // spins past R2's deadline without a scheduling point, so R2 is requeued ahead of
        // R1. S's first send hands its value to R1 (already dequeued) and the second blocks
        // on the full channel; R2 then runs its last look and takes the value. That take
        // freed the slot, so it must wake S — or S and R1 stay parked forever.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("chan-timeout");
        let (tx, rx) = channel::<u32>(1);
        let rx2 = rx.clone();
        let r1 = p.spawn(move || rx.recv());
        while rx2.waiter_count() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let probe = rx2.clone();
        let r2 = p.spawn(move || rx2.recv_timeout(Duration::from_millis(10)));
        while probe.waiter_count() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = p.spawn(move || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(50) {
                std::hint::spin_loop();
            }
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let s = s.join_timeout(Duration::from_secs(3));
        assert!(s.is_ok(), "the sender stayed parked on a channel with room");
        let r1 = r1.join_timeout(Duration::from_secs(3));
        assert!(
            r1.is_ok(),
            "the blocking receiver never got the second value"
        );
        // Every value sent is received exactly once (R2 may also have timed out empty).
        let mut got = vec![r1.unwrap().unwrap().unwrap()];
        got.extend(r2.join().unwrap());
        got.extend(probe.try_recv());
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        usf.shutdown();
    }

    #[test]
    fn drain_returns_pending_values() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.is_empty());
    }
}
