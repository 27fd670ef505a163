//! An independent model of the paper's ring elections (arXiv:2405.03646
//! §3–4): Algorithms 1, 2 and 3 and Algorithm 2 without its receive gate,
//! written from the pseudocode as plain counter machines. It shares no
//! code with the crates: no node, wiring, scheduler, fingerprint or dedup
//! type. A configuration is a `Vec<u32>` holding [`SLOTS`] counters and
//! flags per node, then one pulse count per `(sender, direction)` channel,
//! and [`explore`] keeps every full configuration it reaches in a
//! `HashSet`: two configurations are merged only if they are equal.
//!
//! Algorithm 2 follows `co_core::alg2`'s event-driven reading of the
//! pseudocode. A counterclockwise pulse that arrives while the gate
//! `ρ_cw ≥ ID` (line 9) is closed is counted as deferred, and deferred
//! pulses are processed one at a time once it opens. A pulse delivered to
//! a terminated node is consumed and ignored.
//!
//! A test binary that declares `mod model;` compares the explorer's counts
//! and quiescent configurations with this one's.

use std::collections::{HashSet, VecDeque};

/// The modelled protocols.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Algorithm 1: quiescently stabilizing election on an oriented ring.
    Alg1,
    /// Algorithm 2: quiescently terminating election on an oriented ring.
    Alg2,
    /// Algorithm 2 processing counterclockwise pulses as they arrive.
    Ungated,
    /// Algorithm 3 with Theorem 2's virtual IDs `ID` and `ID + 1`, on a
    /// ring whose nodes may have their ports swapped.
    Alg3,
}

/// Counters and flags per node.
pub const SLOTS: usize = 8;

// Algorithms 1 and 2 and the ablation. Algorithm 1 uses the first two and
// the leader flag.
const RHO_CW: usize = 0;
const SIGMA_CW: usize = 1;
const RHO_CCW: usize = 2;
const SIGMA_CCW: usize = 3;
const DEFERRED: usize = 4;
const LEADER: usize = 5;
const AWAITING_ECHO: usize = 6;
const TERMINATED: usize = 7;

// Algorithm 3: `ρ_p` and `σ_p` per port `p`, the leader flag, and the port
// its output names as clockwise once it has decided.
const RHO: [usize; 2] = [0, 2];
const SIGMA: [usize; 2] = [1, 3];
const CW_OUT: usize = 6;
const DECIDED: usize = 7;

/// Channel directions.
const CW: usize = 0;
const CCW: usize = 1;

/// One ring of one protocol: IDs in clockwise order, and per node whether
/// its ports are swapped (port 0, not port 1, leads clockwise).
#[derive(Clone, Debug)]
pub struct Ring {
    protocol: Protocol,
    ids: Vec<u32>,
    flips: Vec<bool>,
}

/// What an exhaustive run of the model found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelReport {
    /// Distinct reachable configurations.
    pub configs: usize,
    /// `(pulses sent, leader positions)` of every quiescent configuration,
    /// sorted: a multiset, one entry per configuration.
    pub quiescent: Vec<(u64, Vec<usize>)>,
    /// Quiescent configurations that break the protocol's claim: Lemmas 11
    /// and 16 and Corollary 13 for Algorithm 1, Theorem 1 for Algorithm 2
    /// and the ablation, Theorem 2 for Algorithm 3.
    pub broken: usize,
}

impl Ring {
    /// `protocol` on the oriented ring `ids`.
    pub fn oriented(protocol: Protocol, ids: &[u64]) -> Ring {
        Ring::with_flips(protocol, ids, &vec![false; ids.len()])
    }

    /// `protocol` on `ids` with node `i`'s ports swapped where `flips[i]`.
    /// Only Algorithm 3 runs without an orientation.
    pub fn with_flips(protocol: Protocol, ids: &[u64], flips: &[bool]) -> Ring {
        assert_eq!(ids.len(), flips.len());
        assert!(protocol == Protocol::Alg3 || !flips.contains(&true));
        let ids = ids
            .iter()
            .map(|&id| u32::try_from(id).expect("the model counts in u32"))
            .collect();
        Ring {
            protocol,
            ids,
            flips: flips.to_vec(),
        }
    }

    fn n(&self) -> usize {
        self.ids.len()
    }

    fn id_max(&self) -> u32 {
        self.ids.iter().copied().max().expect("a ring has a node")
    }

    fn channel(&self, sender: usize, direction: usize) -> usize {
        self.n() * SLOTS + 2 * sender + direction
    }

    /// The port of node `v` that leads clockwise.
    fn cw_port(&self, v: usize) -> usize {
        usize::from(!self.flips[v])
    }

    fn slot(&self, v: usize, slot: usize) -> usize {
        v * SLOTS + slot
    }

    fn send(&self, s: &mut [u32], v: usize, direction: usize) {
        let sigma = match (self.protocol, direction) {
            (Protocol::Alg3, _) => SIGMA[self.port_towards(v, direction)],
            (_, CW) => SIGMA_CW,
            _ => SIGMA_CCW,
        };
        s[self.slot(v, sigma)] += 1;
        s[self.channel(v, direction)] += 1;
    }

    /// The port of node `v` that sends in `direction`.
    fn port_towards(&self, v: usize, direction: usize) -> usize {
        if direction == CW {
            self.cw_port(v)
        } else {
            1 - self.cw_port(v)
        }
    }

    /// The configuration after every node's start: Algorithms 1 and 2 send
    /// one clockwise pulse (line 1), Algorithm 3 one from each port.
    fn initial(&self) -> Vec<u32> {
        let mut s = vec![0; self.n() * (SLOTS + 2)];
        for v in 0..self.n() {
            self.send(&mut s, v, CW);
            if self.protocol == Protocol::Alg3 {
                self.send(&mut s, v, CCW);
            }
        }
        s
    }

    /// Delivers one pulse of `channel`.
    fn deliver(&self, s: &mut [u32], channel: usize) {
        s[channel] -= 1;
        let n = self.n();
        let sender = (channel - n * SLOTS) / 2;
        let direction = (channel - n * SLOTS) % 2;
        let v = if direction == CW {
            (sender + 1) % n
        } else {
            (sender + n - 1) % n
        };
        // Algorithm 3 never terminates; its last slot is the decided flag.
        if self.protocol != Protocol::Alg3 && s[self.slot(v, TERMINATED)] == 1 {
            return;
        }
        match (self.protocol, direction) {
            (Protocol::Alg3, _) => self.alg3_receive(s, v, 1 - self.port_towards(v, direction)),
            (Protocol::Alg1, CW) => self.receive_cw(s, v),
            (Protocol::Alg1, _) => panic!("Algorithm 1 sends no counterclockwise pulse"),
            (Protocol::Alg2, CW) => {
                self.receive_cw(s, v);
                if self.gate_open(s, v) {
                    if s[self.slot(v, SIGMA_CCW)] == 0 {
                        self.send(s, v, CCW);
                    }
                    while s[self.slot(v, DEFERRED)] > 0 && s[self.slot(v, TERMINATED)] == 0 {
                        s[self.slot(v, DEFERRED)] -= 1;
                        self.receive_ccw(s, v);
                    }
                }
                self.maybe_terminate(s, v);
            }
            (Protocol::Alg2, _) if self.gate_open(s, v) => self.receive_ccw(s, v),
            (Protocol::Alg2, _) => s[self.slot(v, DEFERRED)] += 1,
            (Protocol::Ungated, CW) => {
                self.receive_cw(s, v);
                if self.gate_open(s, v) && s[self.slot(v, SIGMA_CCW)] == 0 {
                    self.send(s, v, CCW);
                }
                self.maybe_terminate(s, v);
            }
            (Protocol::Ungated, _) => self.receive_ccw(s, v),
        }
    }

    /// Algorithm 2's line 9: `ρ_cw ≥ ID`.
    fn gate_open(&self, s: &[u32], v: usize) -> bool {
        s[self.slot(v, RHO_CW)] >= self.ids[v]
    }

    /// Lines 3–8: count a clockwise pulse; absorb it exactly when
    /// `ρ_cw = ID` and relay it otherwise.
    fn receive_cw(&self, s: &mut [u32], v: usize) {
        s[self.slot(v, RHO_CW)] += 1;
        let leader = s[self.slot(v, RHO_CW)] == self.ids[v];
        s[self.slot(v, LEADER)] = u32::from(leader);
        if !leader {
            self.send(s, v, CW);
        }
    }

    /// Lines 11–13 and 16–18: count a counterclockwise pulse. The echo of
    /// the leader's termination pulse terminates it; a pulse that lifts
    /// `ρ_ccw` above `ρ_cw` is the termination pulse, relayed once before
    /// terminating; any other pulse is relayed unless `ρ_ccw = ID`.
    fn receive_ccw(&self, s: &mut [u32], v: usize) {
        s[self.slot(v, RHO_CCW)] += 1;
        if s[self.slot(v, AWAITING_ECHO)] == 1 {
            s[self.slot(v, TERMINATED)] = 1;
        } else if s[self.slot(v, RHO_CCW)] > s[self.slot(v, RHO_CW)] {
            self.send(s, v, CCW);
            s[self.slot(v, TERMINATED)] = 1;
        } else {
            if s[self.slot(v, RHO_CCW)] != self.ids[v] {
                self.send(s, v, CCW);
            }
            self.maybe_terminate(s, v);
        }
    }

    /// Lines 14–15: at `ρ_cw = ID = ρ_ccw`, send the termination pulse
    /// and await its echo.
    fn maybe_terminate(&self, s: &mut [u32], v: usize) {
        let id = self.ids[v];
        if s[self.slot(v, AWAITING_ECHO)] == 0
            && s[self.slot(v, RHO_CW)] == id
            && s[self.slot(v, RHO_CCW)] == id
        {
            self.send(s, v, CCW);
            s[self.slot(v, AWAITING_ECHO)] = 1;
        }
    }

    /// Algorithm 3, lines 5–16: a pulse arriving at port `p` counts in
    /// `ρ_p` and leaves from the other port `q` unless `ρ_p = ID^(q)`;
    /// once `max(ρ_0, ρ_1) ≥ ID^(1)` the node decides, leading iff
    /// `ρ_0 = ID^(1) > ρ_1`, and names as clockwise the port opposite
    /// the one that received more.
    fn alg3_receive(&self, s: &mut [u32], v: usize, p: usize) {
        let q = 1 - p;
        let virt = [self.ids[v], self.ids[v] + 1];
        s[self.slot(v, RHO[p])] += 1;
        if s[self.slot(v, RHO[p])] != virt[q] {
            let direction = if q == self.cw_port(v) { CW } else { CCW };
            self.send(s, v, direction);
        }
        let [rho0, rho1] = [s[self.slot(v, RHO[0])], s[self.slot(v, RHO[1])]];
        if rho0.max(rho1) >= virt[1] {
            s[self.slot(v, LEADER)] = u32::from(rho0 == virt[1] && rho1 < virt[1]);
            s[self.slot(v, CW_OUT)] = u32::from(rho0 > rho1);
            s[self.slot(v, DECIDED)] = 1;
        }
    }

    /// Positions whose output is Leader: Algorithm 2 outputs only when it
    /// terminates, Algorithm 3 only once it has decided.
    fn leaders(&self, s: &[u32]) -> Vec<usize> {
        let outputs = |v: usize| match self.protocol {
            Protocol::Alg1 => true,
            Protocol::Alg2 | Protocol::Ungated => s[self.slot(v, TERMINATED)] == 1,
            Protocol::Alg3 => s[self.slot(v, DECIDED)] == 1,
        };
        (0..self.n())
            .filter(|&v| outputs(v) && s[self.slot(v, LEADER)] == 1)
            .collect()
    }

    /// Pulses sent: every protocol keeps its two send counters in the
    /// slots of `σ_cw` and `σ_ccw` (Algorithm 3's `σ_0` and `σ_1`).
    fn sent(&self, s: &[u32]) -> u64 {
        (0..self.n())
            .map(|v| u64::from(s[self.slot(v, SIGMA_CW)]) + u64::from(s[self.slot(v, SIGMA_CCW)]))
            .sum()
    }

    /// Whether a quiescent configuration keeps the protocol's claim.
    fn claim_holds(&self, s: &[u32]) -> bool {
        let n = self.n();
        let id_max = self.id_max();
        let max_holders: Vec<usize> = (0..n).filter(|&v| self.ids[v] == id_max).collect();
        let all = |slot: usize, value: u32| (0..n).all(|v| s[self.slot(v, slot)] == value);
        let per_node = match self.protocol {
            Protocol::Alg1 => u64::from(id_max),
            _ => 2 * u64::from(id_max) + 1,
        };
        let sent_ok = self.sent(s) == n as u64 * per_node;
        let leaders = self.leaders(s);
        match self.protocol {
            Protocol::Alg1 => {
                all(RHO_CW, id_max) && all(SIGMA_CW, id_max) && leaders == max_holders && sent_ok
            }
            Protocol::Alg2 | Protocol::Ungated => {
                all(TERMINATED, 1) && leaders == max_holders[..1] && sent_ok
            }
            Protocol::Alg3 => {
                let along = |flip: bool| {
                    (0..n).all(|v| {
                        s[self.slot(v, CW_OUT)] as usize == self.cw_port(v) ^ usize::from(flip)
                    })
                };
                all(DECIDED, 1)
                    && leaders == max_holders[..1]
                    && (along(false) || along(true))
                    && sent_ok
            }
        }
    }
}

/// Every configuration `ring` reaches under every delivery order, by
/// breadth-first search over full configurations.
pub fn explore(ring: &Ring) -> ModelReport {
    let channels = ring.n() * SLOTS..ring.n() * (SLOTS + 2);
    let initial = ring.initial();
    let mut seen: HashSet<Vec<u32>> = HashSet::from([initial.clone()]);
    let mut queue = VecDeque::from([initial]);
    let mut quiescent = Vec::new();
    let mut broken = 0;
    while let Some(state) = queue.pop_front() {
        let mut quiet = true;
        for channel in channels.clone().filter(|&c| state[c] > 0) {
            quiet = false;
            let mut next = state.clone();
            ring.deliver(&mut next, channel);
            if !seen.contains(&next) {
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
        if quiet {
            quiescent.push((ring.sent(&state), ring.leaders(&state)));
            broken += usize::from(!ring.claim_holds(&state));
        }
    }
    quiescent.sort();
    ModelReport {
        configs: seen.len(),
        quiescent,
        broken,
    }
}
