//! The four workloads: what each one sends, how it is paced, and what it
//! records per request. All pacing, clocks and bookkeeping are the
//! benchmark's own; the program is reached through `adapter` only.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::adapter::{Batch, Input, ModelDef, Output, Plan, Reply, Server, Ticket};
use crate::gen::{sub_seed, Pick, Schedule};

/// Models in the serving zoo: `m0..m2`, each `networks::tiny()` with its
/// own INQ weights at one of these densities.
pub const ZOO_DENSITIES: [f64; 3] = [0.9, 0.8, 0.7];
/// Verified input/output cases per model.
pub const CASES_PER_MODEL: usize = 4;
/// Synchronous clients of `serve_closed_c2`.
pub const CLOSED_CLIENTS: usize = 2;
/// Requests `serve_pipelined_w32` keeps in flight.
pub const PIPELINE_DEPTH: usize = 32;
/// Fixed schedule of `serve_open_r500`, requests per second.
pub const OPEN_RATE: f64 = 500.0;
/// Images per `forward_batch` call of `offline_b32`.
pub const OFFLINE_BATCH: usize = 32;
/// A served request meets its limit when it is answered correctly within
/// this long of the instant it was due.
pub const SLO: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeClosedC2,
    ServePipelinedW32,
    ServeOpenR500,
    OfflineB32,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeClosedC2,
        Workload::ServePipelinedW32,
        Workload::ServeOpenR500,
        Workload::OfflineB32,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeClosedC2 => "serve_closed_c2",
            Workload::ServePipelinedW32 => "serve_pipelined_w32",
            Workload::ServeOpenR500 => "serve_open_r500",
            Workload::OfflineB32 => "offline_b32",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        self != Workload::OfflineB32
    }

    /// Threads the benchmark itself runs while measuring.
    pub fn generator_threads(self) -> usize {
        match self {
            Workload::ServeClosedC2 => CLOSED_CLIENTS,
            // One sender, one collector.
            Workload::ServePipelinedW32 | Workload::ServeOpenR500 => 2,
            Workload::OfflineB32 => 1,
        }
    }
}

/// One input with the dense reference's answer to it.
#[derive(Clone, Debug)]
pub struct Case {
    pub input: Input,
    pub expected: Output,
}

fn cases_for(model: &ModelDef, seed: u64, purpose: &str, count: usize) -> Vec<Case> {
    (0..count)
        .map(|i| {
            let input = model.input(sub_seed(seed, purpose, i as u64));
            let expected = model.reference(&input);
            Case { input, expected }
        })
        .collect()
}

/// Everything the serve workloads send, derived from the seed.
pub struct ServeInputs {
    pub models: Vec<ModelDef>,
    /// `cases[model][case]`.
    pub cases: Vec<Vec<Case>>,
}

impl ServeInputs {
    pub fn generate(seed: u64) -> Self {
        let models: Vec<ModelDef> = ZOO_DENSITIES
            .iter()
            .enumerate()
            .map(|(i, &density)| {
                ModelDef::tiny(
                    &format!("m{i}"),
                    sub_seed(seed, "zoo-weights", i as u64),
                    density,
                )
            })
            .collect();
        let cases = models
            .iter()
            .enumerate()
            .map(|(i, m)| cases_for(m, seed, &format!("zoo-inputs-{i}"), CASES_PER_MODEL))
            .collect();
        Self { models, cases }
    }

    fn schedule(&self, seed: u64, stream: u64) -> Schedule {
        Schedule::new(seed, stream, self.models.len(), CASES_PER_MODEL)
    }

    fn pick(&self, pick: Pick) -> (&str, &Case) {
        (
            self.models[pick.model].name(),
            &self.cases[pick.model][pick.case],
        )
    }
}

/// What `offline_b32` runs: LeNet and one fixed batch.
pub struct OfflineInputs {
    pub model: ModelDef,
    pub cases: Vec<Case>,
}

impl OfflineInputs {
    pub fn generate(seed: u64) -> Self {
        let model = ModelDef::lenet(sub_seed(seed, "lenet-weights", 0), 0.9);
        let cases = cases_for(&model, seed, "lenet-inputs", OFFLINE_BATCH);
        Self { model, cases }
    }

    pub fn batch(&self, size: usize) -> (Batch, Vec<Output>) {
        batch_of(&self.cases, size)
    }
}

/// The first `size` cases (cycled) as one batch with its expected outputs.
pub fn batch_of(cases: &[Case], size: usize) -> (Batch, Vec<Output>) {
    let picked: Vec<&Case> = cases.iter().cycle().take(size).collect();
    let inputs: Vec<Input> = picked.iter().map(|c| c.input.clone()).collect();
    let expected = picked.iter().map(|c| c.expected.clone()).collect();
    (Batch::of(&inputs), expected)
}

/// Outcomes, counted against everything attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub mismatched: u64,
    pub errored: u64,
    pub refused: u64,
    /// Open-loop sends that found the queue full and waited for room. They
    /// are answered like any other, so they are not failures; the wait is in
    /// their latency, which runs from the instant they were due.
    pub waited: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatched + self.errored + self.refused
    }

    /// Every answer that came back was the dense reference's. A refusal is a
    /// failed operation, not a wrong output; only the rate ladder, which
    /// looks for overload, lets the engine refuse.
    pub fn outputs_correct(&self) -> bool {
        self.mismatched == 0 && self.errored == 0
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.errored += other.errored;
        self.refused += other.refused;
        self.waited += other.waited;
    }
}

/// One timed operation: a served request, or one `forward_batch` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// When the operation was due, from the run's epoch. Latency is charged
    /// from here — for the open loop that is the scheduled send time, not
    /// the actual one.
    pub start_ns: u64,
    pub latency_ns: u64,
    /// How long after `start_ns` the generator actually sent it.
    pub late_ns: u64,
    /// Answered, and bit-identical to the dense reference.
    pub ok: bool,
}

/// The extra per-request stamps a traced run keeps (parallel to `Sample`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Detail {
    /// The benchmark-timed span of the submit call.
    pub submit_ns: u64,
    pub queue_ns: u64,
    pub batch_form_ns: u64,
    pub service_ns: u64,
    pub batch_size: u32,
    pub worker: u32,
    /// Collector receipt − the engine's `completed_at`.
    pub recv_skew_ns: u64,
    /// Whether latency ends at receipt (a synchronous client) or at
    /// `completed_at` (a collector that waits in send order).
    pub ends_at_receipt: bool,
}

impl Detail {
    /// `latency − queue − service`: what the request spent outside the
    /// engine's own two phases. The three partition latency by construction.
    pub fn overhead_ns(&self, sample: &Sample) -> u64 {
        sample
            .latency_ns
            .saturating_sub(self.queue_ns)
            .saturating_sub(self.service_ns)
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Latency charged to a request: from the instant it was *due*, so a late
/// generator or a stalled engine cannot hide the wait it imposed.
pub fn charged_latency(due: Instant, finished: Instant) -> Duration {
    finished.saturating_duration_since(due)
}

/// Per-thread sample sink.
pub struct Recorder {
    epoch: Instant,
    traced: bool,
    pub samples: Vec<Sample>,
    pub details: Vec<Detail>,
    pub tally: Tally,
}

/// When one request was due, sent, and (traced runs) back from `submit`.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub due: Instant,
    pub sent: Instant,
    pub submit_end: Option<Instant>,
    /// The queue was full at `sent` and the send waited for room.
    pub waited: bool,
}

impl Recorder {
    pub fn new(epoch: Instant, traced: bool, capacity: usize) -> Self {
        Self {
            epoch,
            traced,
            samples: Vec::with_capacity(capacity),
            details: Vec::with_capacity(if traced { capacity } else { 0 }),
            tally: Tally::default(),
        }
    }

    fn push(&mut self, at: &Sent, finished: Instant, ok: bool, detail: Detail) {
        self.samples.push(Sample {
            start_ns: ns(at.due.saturating_duration_since(self.epoch)),
            latency_ns: ns(charged_latency(at.due, finished)),
            late_ns: ns(at.sent.saturating_duration_since(at.due)),
            ok,
        });
        if self.traced {
            self.details.push(detail);
        }
    }

    /// An answered request. `ends_at_receipt` says where its latency ends.
    pub fn answered(
        &mut self,
        at: &Sent,
        reply: &Reply,
        received: Instant,
        ends_at_receipt: bool,
        expected: &Output,
    ) {
        self.tally.attempted += 1;
        self.tally.waited += u64::from(at.waited);
        let ok = reply.output == *expected;
        if !ok {
            self.tally.mismatched += 1;
        }
        let finished = if ends_at_receipt {
            received
        } else {
            reply.completed_at
        };
        let detail = Detail {
            submit_ns: at
                .submit_end
                .map_or(0, |end| ns(end.saturating_duration_since(at.sent))),
            queue_ns: reply.queue_ns,
            batch_form_ns: reply.batch_form_ns,
            service_ns: reply.service_ns,
            batch_size: reply.batch_size as u32,
            worker: reply.worker as u32,
            recv_skew_ns: ns(received.saturating_duration_since(reply.completed_at)),
            ends_at_receipt,
        };
        self.push(at, finished, ok, detail);
    }

    /// A request the engine refused at submit, or answered with an error.
    pub fn unanswered(&mut self, at: &Sent, refused: bool, now: Instant) {
        self.tally.attempted += 1;
        if refused {
            self.tally.refused += 1;
        } else {
            self.tally.errored += 1;
        }
        self.push(at, now, false, Detail::default());
    }

    fn absorb(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.details.extend(other.details);
        self.tally.merge(&other.tally);
    }
}

/// What one measured stretch produced.
pub struct Run {
    pub samples: Vec<Sample>,
    /// Parallel to `samples` in a traced run, empty otherwise.
    pub details: Vec<Detail>,
    pub tally: Tally,
    /// The stretch's epoch; `Sample::start_ns` counts from it.
    pub epoch: Instant,
}

impl Run {
    /// Room for `more` further stretches as long as this one.
    pub fn reserve(&mut self, more: usize) {
        self.samples.reserve(more * self.samples.len());
    }

    /// Adds a later stretch that began `shift_ns` after this one did.
    pub fn append(&mut self, later: Run, shift_ns: u64) {
        self.samples
            .extend(later.samples.into_iter().map(|s| Sample {
                start_ns: s.start_ns + shift_ns,
                ..s
            }));
        self.details.extend(later.details);
        self.tally.merge(&later.tally);
    }

    fn from(mut rec: Recorder) -> Self {
        // Several clients record independently; order by due time so
        // windows and request ids do not depend on which thread merged first.
        if rec.details.is_empty() {
            rec.samples.sort_by_key(|s| s.start_ns);
        } else {
            let mut joined: Vec<(Sample, Detail)> =
                rec.samples.into_iter().zip(rec.details).collect();
            joined.sort_by_key(|(s, _)| s.start_ns);
            (rec.samples, rec.details) = joined.into_iter().unzip();
        }
        Self {
            samples: rec.samples,
            details: rec.details,
            tally: rec.tally,
            epoch: rec.epoch,
        }
    }
}

/// Sample-buffer size for a stretch: generous for today's rates, so the
/// buffers do not grow mid-run (they still can, if the program gets faster).
fn capacity_for(duration: Duration) -> usize {
    (duration.as_secs_f64() * 8_000.0) as usize + 1024
}

/// `serve_closed_c2`: each client submits, waits, and only then sends its
/// next request. Latency is what the client sees: submit → `wait` returns.
pub fn run_closed(
    server: &Server,
    inputs: &ServeInputs,
    seed: u64,
    stream_base: u64,
    duration: Duration,
    traced: bool,
) -> Run {
    let epoch = Instant::now();
    let mut merged = Recorder::new(epoch, traced, 0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, traced, capacity_for(duration));
                    let mut schedule = inputs.schedule(seed, stream_base + client as u64);
                    while epoch.elapsed() < duration {
                        let (model, case) =
                            inputs.pick(schedule.next().expect("schedule is endless"));
                        let input = case.input.clone();
                        let sent = Instant::now();
                        let ticket = server.submit(model, input);
                        let mut at = Sent {
                            due: sent,
                            sent,
                            submit_end: traced.then(Instant::now),
                            waited: false,
                        };
                        match ticket.map(Ticket::wait) {
                            Ok(Ok(reply)) => {
                                let received = Instant::now();
                                rec.answered(&at, &reply, received, true, &case.expected);
                            }
                            Ok(Err(_)) => rec.unanswered(&at, false, Instant::now()),
                            Err(_) => {
                                at.submit_end = None;
                                rec.unanswered(&at, true, Instant::now());
                            }
                        }
                    }
                    rec
                })
            })
            .collect();
        for client in clients {
            merged.absorb(client.join().expect("client thread panicked"));
        }
    });
    Run::from(merged)
}

/// A request on its way from the sender to the collector.
struct Flight<'a> {
    ticket: Result<Ticket, String>,
    at: Sent,
    expected: &'a Output,
}

/// Waits for each in-flight request in send order, records it, and hands
/// one credit back per request when the sender is credit-paced. Latency
/// ends at the engine's `completed_at`, because waiting in send order would
/// otherwise charge a request for the ones ahead of it.
fn collect(
    flights: mpsc::Receiver<Flight<'_>>,
    credits: Option<mpsc::Sender<()>>,
    mut rec: Recorder,
) -> Recorder {
    for flight in flights {
        match flight.ticket.map(Ticket::wait) {
            Ok(Ok(reply)) => {
                let received = Instant::now();
                rec.answered(&flight.at, &reply, received, false, flight.expected);
            }
            Ok(Err(_)) => rec.unanswered(&flight.at, false, Instant::now()),
            Err(_) => rec.unanswered(&flight.at, true, Instant::now()),
        }
        if let Some(credits) = &credits {
            // The sender may already have stopped; a dead credit is fine.
            let _ = credits.send(());
        }
    }
    rec
}

/// `serve_pipelined_w32`: one sender keeps `PIPELINE_DEPTH` requests in
/// flight through a credit channel; one collector returns a credit per
/// answer. Closed loop (no request is sent without a credit), so nothing is
/// shed, but deep enough for the engine to drain real batches.
pub fn run_pipelined(
    server: &Server,
    inputs: &ServeInputs,
    seed: u64,
    stream_base: u64,
    duration: Duration,
    traced: bool,
) -> Run {
    let epoch = Instant::now();
    let rec = Recorder::new(epoch, traced, capacity_for(duration));
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    for _ in 0..PIPELINE_DEPTH {
        credit_tx.send(()).expect("receiver is alive");
    }
    let (flight_tx, flight_rx) = mpsc::channel::<Flight<'_>>();
    let rec = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(flight_rx, Some(credit_tx), rec));
        let mut schedule = inputs.schedule(seed, stream_base);
        while credit_rx.recv().is_ok() && epoch.elapsed() < duration {
            let (model, case) = inputs.pick(schedule.next().expect("schedule is endless"));
            let input = case.input.clone();
            let sent = Instant::now();
            let ticket = server.submit(model, input);
            let at = Sent {
                due: sent,
                sent,
                submit_end: traced.then(Instant::now),
                waited: false,
            };
            let flight = Flight {
                ticket,
                at,
                expected: &case.expected,
            };
            if flight_tx.send(flight).is_err() {
                break;
            }
        }
        drop(flight_tx);
        collector.join().expect("collector thread panicked")
    });
    Run::from(rec)
}

/// What the open-loop sender does when the engine's queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WhenFull {
    /// Wait for room (`submit`). A host stall of over half a second makes the
    /// sender fire a backlog larger than the queue at once; every request of
    /// it is still sent and answered, and pays for the wait in its latency,
    /// which runs from the instant it was due.
    Wait,
    /// Count the request as refused: the rate ladder's sign of overload.
    Refuse,
}

/// `serve_open_r500` (and the rate ladder): one sender on a fixed schedule
/// — request `i` is due at `epoch + i / rate` whatever happened to the ones
/// before it — sleeping to each deadline and submitting without blocking
/// (`try_submit`; `when_full` says what a full queue leads to); one
/// collector. Latency is charged from the due time.
#[allow(clippy::too_many_arguments)]
pub fn run_open(
    server: &Server,
    inputs: &ServeInputs,
    seed: u64,
    stream_base: u64,
    rate: f64,
    duration: Duration,
    when_full: WhenFull,
    traced: bool,
) -> Run {
    let epoch = Instant::now();
    let rec = Recorder::new(epoch, traced, (duration.as_secs_f64() * rate) as usize + 16);
    let (flight_tx, flight_rx) = mpsc::channel::<Flight<'_>>();
    let rec = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(flight_rx, None, rec));
        let mut schedule = inputs.schedule(seed, stream_base);
        for i in 0u64.. {
            let offset = Duration::from_nanos((i as f64 * 1e9 / rate) as u64);
            if offset >= duration {
                break;
            }
            let due = epoch + offset;
            let (model, case) = inputs.pick(schedule.next().expect("schedule is endless"));
            let input = case.input.clone();
            // Sleep to the deadline, never spin: the generator must not
            // compete with the engine for the host's two cores.
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let mut waited = false;
            let ticket = match server.try_submit(model, input) {
                Ok(Some(ticket)) => Ok(ticket),
                Ok(None) if when_full == WhenFull::Wait => {
                    waited = true;
                    server.submit(model, case.input.clone())
                }
                Ok(None) => Err("the queue is full".to_string()),
                Err(e) => Err(e),
            };
            let at = Sent {
                due,
                sent,
                submit_end: traced.then(Instant::now),
                waited,
            };
            let flight = Flight {
                ticket,
                at,
                expected: &case.expected,
            };
            if flight_tx.send(flight).is_err() {
                break;
            }
        }
        drop(flight_tx);
        collector.join().expect("collector thread panicked")
    });
    Run::from(rec)
}

/// `offline_b32`: the same batch through `forward_batch` again and again on
/// this thread. One sample per call; outputs are checked after the clock
/// stops, and counted per image.
pub fn run_offline(plan: &Plan, batch: &Batch, expected: &[Output], duration: Duration) -> Run {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, false, 4096);
    while epoch.elapsed() < duration {
        let start = Instant::now();
        let outputs = plan.forward_batch(batch);
        let end = Instant::now();
        let mismatched = outputs.mismatches(expected) as u64;
        rec.tally.attempted += expected.len() as u64;
        rec.tally.mismatched += mismatched;
        let at = Sent {
            due: start,
            sent: start,
            submit_end: None,
            waited: false,
        };
        rec.push(&at, end, mismatched == 0, Detail::default());
    }
    Run::from(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply_for(output: Output, completed_at: Instant) -> Reply {
        Reply {
            output,
            queue_ns: 100,
            batch_form_ns: 10,
            service_ns: 1_000,
            batch_size: 1,
            worker: 0,
            completed_at,
        }
    }

    fn one_case() -> Case {
        let model = ModelDef::tiny("t", 1, 0.9);
        cases_for(&model, 2, "test", 1).remove(0)
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_intended_send_time() {
        let case = one_case();
        let epoch = Instant::now();
        let due = epoch + Duration::from_millis(100);
        // The generator was 30 ms late; the engine then took 2 ms.
        let sent = due + Duration::from_millis(30);
        let completed = sent + Duration::from_millis(2);
        let mut rec = Recorder::new(epoch, true, 1);
        let at = Sent {
            due,
            sent,
            submit_end: Some(sent + Duration::from_micros(5)),
            waited: false,
        };
        rec.answered(
            &at,
            &reply_for(case.expected.clone(), completed),
            completed + Duration::from_micros(40),
            false,
            &case.expected,
        );
        let (sample, detail) = (rec.samples[0], rec.details[0]);
        assert_eq!(sample.start_ns, 100_000_000);
        assert_eq!(sample.latency_ns, 32_000_000, "charged from due, not sent");
        assert_eq!(sample.late_ns, 30_000_000);
        assert!(sample.ok);
        assert_eq!(detail.submit_ns, 5_000);
        assert_eq!(detail.recv_skew_ns, 40_000);
        // queue + service + overhead is the latency, exactly.
        assert_eq!(
            detail.queue_ns + detail.service_ns + detail.overhead_ns(&sample),
            sample.latency_ns
        );
    }

    #[test]
    fn a_corrupted_expected_output_is_counted_as_failed() {
        let case = one_case();
        let mut wrong = case.expected.clone();
        wrong.corrupt();
        assert_ne!(wrong, case.expected);
        let epoch = Instant::now();
        let at = Sent {
            due: epoch,
            sent: epoch,
            submit_end: None,
            waited: false,
        };
        let mut rec = Recorder::new(epoch, false, 2);
        rec.answered(
            &at,
            &reply_for(case.expected.clone(), epoch),
            epoch,
            true,
            &case.expected,
        );
        rec.answered(
            &at,
            &reply_for(case.expected.clone(), epoch),
            epoch,
            true,
            &wrong,
        );
        assert_eq!(rec.tally.attempted, 2);
        assert_eq!(rec.tally.mismatched, 1);
        assert_eq!(rec.tally.failed(), 1);
        assert!(rec.samples[0].ok && !rec.samples[1].ok);
        // The offline path counts per image the same way.
        let (_, mut expected) = batch_of(std::slice::from_ref(&case), 3);
        let model = ModelDef::tiny("t", 1, 0.9);
        let plan = model.compile();
        let (batch, _) = batch_of(std::slice::from_ref(&case), 3);
        assert_eq!(plan.forward_batch(&batch).mismatches(&expected), 0);
        expected[1].corrupt();
        assert_eq!(plan.forward_batch(&batch).mismatches(&expected), 1);
    }

    #[test]
    fn failed_share_counts_refusals_against_attempted() {
        let case = one_case();
        let epoch = Instant::now();
        let at = Sent {
            due: epoch,
            sent: epoch,
            submit_end: None,
            waited: false,
        };
        let mut rec = Recorder::new(epoch, false, 4);
        for _ in 0..2 {
            rec.answered(
                &at,
                &reply_for(case.expected.clone(), epoch),
                epoch,
                true,
                &case.expected,
            );
        }
        rec.unanswered(&at, true, epoch);
        rec.unanswered(&at, false, epoch);
        assert_eq!(
            rec.tally,
            Tally {
                attempted: 4,
                mismatched: 0,
                errored: 1,
                refused: 1,
                waited: 0
            }
        );
        assert_eq!(rec.tally.failed_share(), 0.5);
        assert!(
            !rec.tally.outputs_correct(),
            "an engine error is a wrong answer"
        );
        let only_refused = Tally {
            attempted: 3,
            refused: 1,
            ..Tally::default()
        };
        assert!(only_refused.outputs_correct() && only_refused.failed() == 1);
        // A send that waited for room in a full queue is answered all the
        // same: counted, not failed.
        let waited = Sent { waited: true, ..at };
        rec.answered(
            &waited,
            &reply_for(case.expected.clone(), epoch),
            epoch,
            false,
            &case.expected,
        );
        assert_eq!((rec.tally.waited, rec.tally.failed()), (1, 2));
        assert_eq!(rec.samples.iter().filter(|s| s.ok).count(), 3);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = ServeInputs::generate(5);
        let b = ServeInputs::generate(5);
        let c = ServeInputs::generate(6);
        assert_eq!(a.cases[1][2].expected, b.cases[1][2].expected);
        assert_ne!(a.cases[1][2].expected, c.cases[1][2].expected);
        assert_eq!(a.models.len(), ZOO_DENSITIES.len());
        assert_eq!(a.models[2].name(), "m2");
    }
}
