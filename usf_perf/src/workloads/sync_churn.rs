//! `sync_churn` — blocking-sync-bound: a 16-stage pipeline of persistent cooperative
//! threads joined by bounded channels, every stage also taking one shared mutex.
//!
//! Nearly all the work is `usf-core` sync over `usf-nosv` pause/submit/grant; the compute
//! per stage is ~4 µs. A wake-path or hand-off optimisation must show here.

use super::{Env, Window, Workload, NO_UNIT};
use crate::kernel::{kernel, mix};
use crate::trace::{span, Layer};
use std::sync::Arc;
use std::time::Instant;
use usf_core::exec::ExecJoinHandle;
use usf_core::sync::{channel, Barrier, Mutex, Receiver, Sender};

const STAGES: usize = 16;
const STAGE_ITERS: u64 = 2000;
const CHANNEL_CAPACITY: usize = 4;
const IN_FLIGHT: usize = 8;
/// One drained token in this many is recomputed serially after the run (a full chain
/// costs as much compute as the pipeline spent on the token).
const VERIFY_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Token {
    id: u64,
    value: u64,
    injected: Instant,
}

fn stage_input(value: u64, stage: usize) -> u64 {
    value ^ mix(stage as u64, 0x57A6E)
}

/// The oracle: what a token injected with `value` must hold after all stages.
pub fn chain(value: u64) -> u64 {
    (0..STAGES).fold(value, |v, s| kernel(STAGE_ITERS, stage_input(v, s)))
}

/// Whether a drained token carries the value the serial chain gives its seed.
pub fn token_ok(seed: u64, id: u64, drained: u64) -> bool {
    chain(mix(seed, id)) == drained
}

/// One pipeline stage. Returns the sum of its outputs, which it also adds, one by one, to
/// the mutex-guarded total.
fn stage(
    index: usize,
    rx: Receiver<Token>,
    tx: Sender<Token>,
    total: Arc<Mutex<u64>>,
    start_line: Arc<Barrier>,
) -> u64 {
    span("Barrier::wait", Layer::Core, NO_UNIT, || start_line.wait());
    let mut own_sum = 0u64;
    while let Ok(mut token) = span("Receiver::recv", Layer::Core, NO_UNIT, || rx.recv()) {
        let id = token.id;
        token.value = span("kernel", Layer::Bench, id, || {
            kernel(STAGE_ITERS, stage_input(token.value, index))
        });
        own_sum = own_sum.wrapping_add(token.value);
        {
            let mut guard = span("Mutex::lock", Layer::Core, id, || total.lock());
            *guard = guard.wrapping_add(token.value);
        }
        if span("Sender::send", Layer::Core, id, || tx.send(token)).is_err() {
            break;
        }
    }
    own_sum
}

pub struct SyncChurn {
    seed: u64,
    tx: Option<Sender<Token>>,
    rx: Receiver<Token>,
    stages: Vec<ExecJoinHandle<u64>>,
    total: Arc<Mutex<u64>>,
    next_id: u64,
    in_flight: usize,
    /// `(id, drained value)` of the tokens the end-of-run oracle recomputes.
    sampled: Vec<(u64, u64)>,
}

impl SyncChurn {
    fn inject(&mut self) {
        let token = Token {
            id: self.next_id,
            value: mix(self.seed, self.next_id),
            injected: Instant::now(),
        };
        let tx = self.tx.as_ref().expect("pipeline is open until finish");
        span("Sender::send", Layer::Core, token.id, || tx.send(token))
            .expect("stage 0 outlives the driver's sender");
        self.next_id += 1;
        self.in_flight += 1;
    }

    fn drain(&mut self) -> Token {
        let token = span("Receiver::recv", Layer::Core, NO_UNIT, || self.rx.recv())
            .expect("the last stage outlives the driver's receiver");
        self.in_flight -= 1;
        if token.id % VERIFY_EVERY == 0 {
            self.sampled.push((token.id, token.value));
        }
        token
    }
}

impl Workload for SyncChurn {
    const NAME: &'static str = "sync_churn";

    fn setup(env: &Env, w: &mut Window) -> Self {
        let total = Arc::new(Mutex::new(0u64));
        let start_line = Arc::new(Barrier::new(STAGES + 1));
        let (tx, mut upstream) = channel(CHANNEL_CAPACITY);
        let mut stages = Vec::new();
        for index in 0..STAGES {
            let (stage_tx, downstream) = channel(CHANNEL_CAPACITY);
            let (rx, total, line) = (upstream, Arc::clone(&total), Arc::clone(&start_line));
            stages.push(Env::spawn(&env.main, format!("stage-{index}"), move || {
                stage(index, rx, stage_tx, total, line)
            }));
            upstream = downstream;
        }
        let mut this = SyncChurn {
            seed: env.seed,
            tx: Some(tx),
            rx: upstream,
            stages,
            total,
            next_id: 0,
            in_flight: 0,
            sampled: Vec::new(),
        };
        start_line.wait();
        this.inject();
        this.drain();
        w.unit(true);
        this
    }

    fn run_until(&mut self, deadline: Instant, w: &mut Window) {
        while self.in_flight < IN_FLIGHT {
            self.inject();
        }
        while Instant::now() < deadline {
            let token = self.drain();
            w.lat_ms.push(token.injected.elapsed().as_secs_f64() * 1e3);
            w.unit(true);
            self.inject();
        }
    }

    fn finish(mut self, w: &mut Window) {
        while self.in_flight > 0 {
            self.drain();
        }
        // Closing the head of the pipeline ends stage 0, whose dropped sender ends stage 1,
        // and so on down the line.
        self.tx = None;
        let mut stage_sums = 0u64;
        for handle in self.stages.drain(..) {
            match handle.join() {
                Ok(sum) => stage_sums = stage_sums.wrapping_add(sum),
                Err(_) => w.failed += 1,
            }
        }
        // A lost update under the mutex makes the guarded total fall behind.
        if *self.total.lock() != stage_sums {
            w.failed += 1;
        }
        for &(id, value) in &self.sampled {
            if !token_ok(self.seed, id, value) {
                w.failed += 1;
            }
        }
    }

    fn serial_units(seed: u64) {
        chain(mix(seed, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_token_fails_its_oracle() {
        let good = chain(mix(5, 16));
        assert!(token_ok(5, 16, good));
        assert!(!token_ok(5, 16, good ^ 1));
        assert!(!token_ok(5, 17, good));
    }
}
