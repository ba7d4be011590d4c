//! Cycle-accurate UCNN lane model — the stand-in for the paper's RTL PE
//! (§IV-C datapath, §VI-E evaluation).
//!
//! A *lane* walks one hierarchically sorted stream, one entry per cycle,
//! with the Figure 6 resources: accumulator ② (innermost sub-group sum),
//! accumulators ③ (running sums for outer levels), a dispatch queue in
//! front of a single shared multiplier ①, and the output registers. Extra
//! cycles come from three implementation effects the analytic model also
//! tracks:
//!
//! * **bubbles** — skip/hop entries in the tables (no input read),
//! * **stalls** — more multiply dispatches than the queue can absorb,
//! * **early MACs** — group-cap chunking (extra multiplier dispatches).
//!
//! The lane's arithmetic output is checked against the dense reference in
//! tests (the results are bit-exact regardless of chunking, by
//! distributivity).

use ucnn_core::compile::UcnnConfig;
use ucnn_core::encoding::table_cost;
use ucnn_core::hierarchy::{GroupStream, ZERO_RANK};

/// Lane micro-architecture parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneConfig {
    /// Maximum activation-group (chunk) size before an early MAC (16).
    pub group_cap: usize,
    /// Multiplies the shared multiplier retires per cycle (1).
    pub mult_throughput: usize,
    /// Dispatch-queue depth; excess dispatches stall the entry stream.
    pub queue_depth: usize,
}

impl Default for LaneConfig {
    fn default() -> Self {
        Self {
            group_cap: 16,
            mult_throughput: 1,
            queue_depth: 2,
        }
    }
}

/// Result of running a lane over one stream.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneTrace {
    /// Total cycles: data + bubbles + stalls.
    pub cycles: u64,
    /// Cycles spent reading real entries.
    pub data_cycles: u64,
    /// Bubble cycles from skip/hop table entries.
    pub bubble_cycles: u64,
    /// Stall cycles waiting on the multiplier queue.
    pub stall_cycles: u64,
    /// Multiplies dispatched (early MACs included).
    pub multiplies: u64,
    /// Accumulator additions performed.
    pub adds: u64,
    /// Final per-filter dot products.
    pub outputs: Vec<i32>,
}

/// Runs one lane over a stream with the given activations.
///
/// # Panics
///
/// Panics if `activations.len() != stream.tile_len()` or if the lane
/// configuration is degenerate (zero cap/throughput).
#[must_use]
pub fn run_lane(stream: &GroupStream, activations: &[i16], config: &LaneConfig) -> LaneTrace {
    assert!(config.group_cap > 0, "group cap must be positive");
    assert!(
        config.mult_throughput > 0,
        "multiplier throughput must be positive"
    );
    assert_eq!(
        activations.len(),
        stream.tile_len(),
        "activation tile length mismatch"
    );

    let g = stream.g();
    let canonical = stream.canonical();
    let mut psum = vec![0i32; g];
    let mut reg = vec![0i32; g.saturating_sub(1)];
    let mut acc = 0i32;
    // Chunk carry: sums already early-MACed out of the current innermost
    // group, still owed to the outer levels.
    let mut carry = 0i32;
    let mut run = vec![0usize; g];

    let mut trace = LaneTrace {
        cycles: 0,
        data_cycles: 0,
        bubble_cycles: 0,
        stall_cycles: 0,
        multiplies: 0,
        adds: 0,
        outputs: Vec::new(),
    };
    let mut backlog = 0usize;

    let step = |trace: &mut LaneTrace, backlog: &mut usize, dispatches: usize| {
        // One pipeline cycle: accept dispatches, retire up to the
        // multiplier throughput, stall while the queue overflows.
        *backlog += dispatches;
        let retired = (*backlog).min(config.mult_throughput);
        *backlog -= retired;
        while *backlog > config.queue_depth {
            trace.cycles += 1;
            trace.stall_cycles += 1;
            let retired = (*backlog).min(config.mult_throughput);
            *backlog -= retired;
        }
    };

    for i in 0..stream.entry_count() {
        let e = stream.entry(i);
        trace.cycles += 1;
        trace.data_cycles += 1;
        acc += i32::from(activations[e.index as usize]);
        trace.adds += 1;
        for r in &mut run {
            *r += 1;
        }
        let mut dispatches = 0usize;
        match e.close_level {
            None => {
                // Early MAC when the innermost run crosses the cap.
                if run[g - 1].is_multiple_of(config.group_cap) && e.ranks[g - 1] != ZERO_RANK {
                    let w = i32::from(canonical[e.ranks[g - 1] as usize]);
                    psum[g - 1] += acc * w;
                    carry += acc;
                    acc = 0;
                    dispatches += 1;
                    trace.multiplies += 1;
                }
            }
            Some(cl) => {
                let l = cl as usize;
                let mut t = acc + carry;
                // The final chunk multiplies only the residue in `acc`.
                if e.ranks[g - 1] != ZERO_RANK {
                    let w = i32::from(canonical[e.ranks[g - 1] as usize]);
                    psum[g - 1] += acc * w;
                    dispatches += 1;
                    trace.multiplies += 1;
                }
                acc = 0;
                carry = 0;
                run[g - 1] = 0;
                // Outer levels merge and (if non-zero) multiply.
                for level in (l..g - 1).rev() {
                    reg[level] += t;
                    trace.adds += 1;
                    t = reg[level];
                    reg[level] = 0;
                    if e.ranks[level] != ZERO_RANK {
                        let w = i32::from(canonical[e.ranks[level] as usize]);
                        let chunks = run[level].div_ceil(config.group_cap);
                        psum[level] += t * w;
                        dispatches += chunks;
                        trace.multiplies += chunks as u64;
                    }
                    run[level] = 0;
                }
                if l > 0 {
                    reg[l - 1] += t;
                    trace.adds += 1;
                }
            }
        }
        step(&mut trace, &mut backlog, dispatches);
    }
    // Dispatches still queued at stream end drain while the next tile's walk
    // begins (the PE pipelines consecutive walks), so they cost no cycles.

    trace.outputs = psum;
    trace
}

/// Runs a lane including the table bubbles implied by `ucnn_config`'s
/// encoding: bubble cycles are appended per the exact skip/hop counts of the
/// encoding model (their interleaving does not affect totals because bubbles
/// carry no dispatches).
#[must_use]
pub fn run_lane_with_bubbles(
    stream: &GroupStream,
    activations: &[i16],
    lane: &LaneConfig,
    ucnn_config: &UcnnConfig,
) -> LaneTrace {
    let mut trace = run_lane(stream, activations, lane);
    let cost = table_cost(stream, &ucnn_config.encoding);
    let bubbles = (cost.skip_entries + cost.hop_entries) as u64;
    trace.bubble_cycles += bubbles;
    trace.cycles += bubbles;
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_core::hierarchy::GroupStream;

    fn dense(f: &[i16], a: &[i16]) -> i32 {
        f.iter()
            .zip(a)
            .map(|(&w, &x)| i32::from(w) * i32::from(x))
            .sum()
    }

    /// Figure 7 in cycles: 8 entries; 6 multiplies; with a 0-deep queue the
    /// two double-dispatch entries (both filters closing) each stall once.
    #[test]
    fn figure7_cycle_accurate() {
        let (a, b) = (1i16, 2i16);
        let k1 = [b, a, a, b, a, a, a, b];
        let k2 = [b, b, a, b, b, b, a, a];
        let stream = GroupStream::build(&[&k1, &k2]);
        let acts: Vec<i16> = vec![3, 5, 7, 11, 13, 17, 19, 23];

        let tight = run_lane(
            &stream,
            &acts,
            &LaneConfig {
                queue_depth: 0,
                ..LaneConfig::default()
            },
        );
        assert_eq!(tight.multiplies, 6);
        assert_eq!(tight.data_cycles, 8);
        assert_eq!(tight.stall_cycles, 2, "two simultaneous k1+k2 closures");
        assert_eq!(tight.outputs, vec![dense(&k1, &acts), dense(&k2, &acts)]);

        // A 2-deep queue absorbs the bursts: no stalls.
        let queued = run_lane(&stream, &acts, &LaneConfig::default());
        assert_eq!(queued.stall_cycles, 0);
        assert_eq!(queued.cycles, 8);
        assert_eq!(queued.outputs, tight.outputs);
    }

    #[test]
    fn outputs_exact_with_chunking() {
        // A 40-long single group with cap 16 → 3 chunks, same result.
        let w = vec![3i16; 40];
        let stream = GroupStream::build(&[&w]);
        let acts: Vec<i16> = (0..40).map(|i| (i % 7) as i16 - 3).collect();
        let trace = run_lane(
            &stream,
            &acts,
            &LaneConfig {
                group_cap: 16,
                ..LaneConfig::default()
            },
        );
        assert_eq!(trace.multiplies, 3);
        assert_eq!(trace.outputs, vec![dense(&w, &acts)]);
    }

    #[test]
    fn chunked_outer_groups_stay_exact_for_g2() {
        let k1 = vec![2i16; 40]; // one giant outer group
        let k2: Vec<i16> = (0..40).map(|i| if i < 20 { 1 } else { 3 }).collect();
        let stream = GroupStream::build(&[&k1, &k2]);
        let acts: Vec<i16> = (0..40).map(|i| (i * 3 % 11) as i16).collect();
        let trace = run_lane(&stream, &acts, &LaneConfig::default());
        assert_eq!(trace.outputs, vec![dense(&k1, &acts), dense(&k2, &acts)]);
    }

    #[test]
    fn stalls_match_analytic_estimate_at_zero_queue() {
        // compile::TileStats counts per-entry excess dispatches; a 0-depth,
        // 1-throughput lane must agree on totals for this pattern.
        let k1 = [1i16, 1, 2, 2, 3, 3];
        let k2 = [1i16, 2, 1, 2, 1, 2];
        let stream = GroupStream::build(&[&k1, &k2]);
        let acts = [1i16; 6];
        let trace = run_lane(
            &stream,
            &acts,
            &LaneConfig {
                queue_depth: 0,
                ..LaneConfig::default()
            },
        );
        // Three k1 closures each coincide with a k2 closure → 3 stalls.
        assert_eq!(trace.stall_cycles, 3);
    }

    #[test]
    fn deeper_queue_never_slower() {
        let k1: Vec<i16> = (0..64).map(|i| (i / 16 + 1) as i16).collect();
        let k2: Vec<i16> = (0..64).map(|i| (i % 4 + 1) as i16).collect();
        let stream = GroupStream::build(&[&k1, &k2]);
        let acts: Vec<i16> = (0..64).map(|i| (i % 9) as i16).collect();
        let mut last = u64::MAX;
        for depth in [0usize, 1, 2, 4, 8] {
            let t = run_lane(
                &stream,
                &acts,
                &LaneConfig {
                    queue_depth: depth,
                    ..LaneConfig::default()
                },
            );
            assert!(t.cycles <= last, "depth {depth}");
            last = t.cycles;
            assert_eq!(t.outputs, vec![dense(&k1, &acts), dense(&k2, &acts)]);
        }
    }

    #[test]
    fn bubbles_add_cycles_but_not_work() {
        // k2's weights are far apart in a wide canonical order → skips.
        let k1 = vec![1i16; 8];
        let k2 = vec![12i16; 8];
        let canonical: Vec<i16> = (1..=12).collect();
        let stream = GroupStream::build_with_canonical(&[&k1, &k2], &canonical);
        let acts = [1i16; 8];
        let cfg = UcnnConfig::with_g(2);
        let with = run_lane_with_bubbles(&stream, &acts, &LaneConfig::default(), &cfg);
        let without = run_lane(&stream, &acts, &LaneConfig::default());
        assert!(with.bubble_cycles > 0);
        assert_eq!(with.multiplies, without.multiplies);
        assert_eq!(with.cycles, without.cycles + with.bubble_cycles);
        assert_eq!(with.outputs, without.outputs);
    }

    #[test]
    fn zero_weight_groups_dispatch_nothing() {
        let k1 = [0i16, 0, 5, 5];
        let stream = GroupStream::build(&[&k1]);
        let acts = [9i16, 9, 2, 3];
        let trace = run_lane(&stream, &acts, &LaneConfig::default());
        assert_eq!(trace.multiplies, 1);
        assert_eq!(trace.data_cycles, 2); // zero positions dropped at G=1
        assert_eq!(trace.outputs, vec![25]);
    }
}
