//! The evaluation scenario for one piconet or many: chained Fig. 4
//! piconets with one bridged Guaranteed Service flow — the paper's
//! future-work workload — and, at one piconet, the paper's own Fig. 4
//! piconet.
//!
//! One piconet derives exactly the Fig. 4 piconet of
//! [`PaperScenario`](crate::PaperScenario), which is its one-piconet view:
//! flows 1–12 on S1–S7 (all four best-effort pairs), no bridges, no
//! chains. Scatternet-only parameters (a non-chain topology, a chain
//! deadline, bidirectional chains) are errors there, and
//! [`ScatternetScenarioParams`] checks every such shape rule before
//! anything is derived.
//!
//! `N ≥ 2` piconets each carry the paper's GS population (flows 1–4 on
//! S1–S3, ids offset by `100·p`) plus an optional reduced best-effort load
//! (S4 and S5; S6/S7 are reserved for bridge roles). A single
//! cross-piconet GS chain enters at the master of piconet 0 and is relayed
//! bridge by bridge to the master of piconet `N−1`:
//!
//! ```text
//! M0 ─▸ B0 (P0/S6 ⇄ P1/S7) ─▸ M1 ─▸ B1 (P1/S6 ⇄ P2/S7) ─▸ M2 ─ …
//! ```
//!
//! Every bridge alternates between its two piconets on a deterministic
//! rendezvous cycle (half the cycle in each), and each piconet's GS
//! schedule gains one bridge-hop entity per bridge role, appended *after*
//! the paper entities — so the paper flows keep their exact single-piconet
//! plans and the per-piconet reports stay comparable to Fig. 5.

use crate::admission::{AdmissionConfig, AdmissionOutcome, GsRequest};
use crate::chain_admission::{
    ChainGrant, ChainHopSpec, ChainRequest, ScatternetAdmissionController,
};
use crate::scenario::{
    derive_gs_schedule, gs_poller, paper_tspec, scenario_sources, BeSourceMix, GsFlowPlan,
    PollerKind, BE_RATES_KBPS,
};
use btgs_baseband::{
    AmAddr, ChannelModel, Direction, IdealChannel, LogicalChannel, PacketType, PiconetId,
    PresenceWindow, ScopedSlave,
};
use btgs_des::{DetRng, SimDuration, SimTime};
use btgs_gs::worst_case_residence;
use btgs_piconet::{
    BridgeSpec, ChainSpec, FlowSpec, PiconetConfig, PiconetError, Poller, ScatternetConfig,
    ScatternetReport, ScatternetSim,
};
use btgs_traffic::{FlowId, Source};

/// Gap between consecutive piconets' flow id blocks.
pub const PICONET_ID_STRIDE: u32 = 100;

/// First id of the chain's hop flows for scenarios of up to nine piconets
/// (`CHAIN_ID_BASE + 2p` enters piconet `p`, `CHAIN_ID_BASE + 1 + 2p`
/// leaves it). Longer scatternets widen the block: see [`chain_id_base`].
pub const CHAIN_ID_BASE: u32 = 900;

/// First id of the *reverse* chain's hop flows (bidirectional scenarios
/// of up to nine piconets): `REV_CHAIN_ID_BASE + 2p` leaves piconet `p`
/// toward lower-numbered piconets, `REV_CHAIN_ID_BASE + 1 + 2p` enters it
/// from above.
pub const REV_CHAIN_ID_BASE: u32 = 950;

/// The slave address every bridge uses in its *downstream* piconet.
pub const BRIDGE_IN_SLAVE: u8 = 7;

/// The slave address every bridge uses in its *upstream* piconet.
pub const BRIDGE_OUT_SLAVE: u8 = 6;

/// The upstream slave address of a tree piconet's *second* out-bridge
/// (its first uses [`BRIDGE_OUT_SLAVE`]). S5 doubles as a best-effort
/// slave, so tree scenarios require `include_be == false`.
pub const TREE_SECOND_OUT_SLAVE: u8 = 5;

/// First id of the hop-flow block for an `n`-piconet scenario.
///
/// Up to nine piconets this is exactly [`CHAIN_ID_BASE`] (so all historic
/// flow ids are preserved); longer scatternets slide the block up so the
/// paper blocks (`100·p + k`) can never reach into it.
pub const fn chain_id_base(n: u16) -> u32 {
    let n = n as u32;
    PICONET_ID_STRIDE * if n > 9 { n } else { 9 }
}

/// First id of the reverse-chain hop block for an `n`-piconet scenario
/// ([`REV_CHAIN_ID_BASE`] for up to nine piconets).
pub const fn rev_chain_id_base(n: u16) -> u32 {
    let gap = 2 * n as u32 + 2;
    chain_id_base(n) + if gap > 50 { gap } else { 50 }
}

/// How the piconets of a [`ScatternetScenario`] are wired together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A line: `M0 → M1 → … → M(N−1)` with one bridge per consecutive
    /// pair and a single end-to-end chain (plus the reverse chain when
    /// `bidirectional`). The PR 3 scenario.
    Chain,
    /// The chain closed into a ring (the mesh variant): a wrap bridge
    /// `P(N−1)/S6 → P0/S7` carries a second, two-hop chain, so every
    /// piconet holds both bridge roles and every rendezvous window is in
    /// use.
    Ring,
    /// A fanout-2 tree (children of piconet `p` are `2p+1` and `2p+2`),
    /// one independent two-hop chain per edge. A parent's second
    /// out-bridge rides on slave S5, so trees require
    /// `include_be == false`.
    Tree,
    /// A deterministic random-geometric mesh: piconets get pseudo-random
    /// plane positions from `seed`, each joins its nearest
    /// already-placed piconet with a free bridge slot (guaranteeing a
    /// connected spanning tree for `degree ≥ 2`), and `degree == 4` adds
    /// one extra cross edge per piconet where slots allow. Every edge is
    /// covered by a multi-hop chain (spanning-tree paths are cut into
    /// segments of at most three edges). Bridge roles are allocated from
    /// slaves S7 down to S4, so meshes require `include_be == false`;
    /// `degree` must be 2..=4.
    Mesh {
        /// Maximum bridge roles per piconet (2..=4).
        degree: u8,
        /// Seed of the geometric placement.
        seed: u64,
    },
}

impl Topology {
    /// Stable lower-case label (grid axes, wire format, bench ids).
    /// Meshes encode their parameters: `mesh{degree}x{seed}`.
    pub fn label(self) -> String {
        match self {
            Topology::Chain => "chain".into(),
            Topology::Ring => "ring".into(),
            Topology::Tree => "tree".into(),
            Topology::Mesh { degree, seed } => format!("mesh{degree}x{seed}"),
        }
    }

    /// Inverse of [`Topology::label`].
    pub fn from_label(label: &str) -> Option<Topology> {
        match label {
            "chain" => Some(Topology::Chain),
            "ring" => Some(Topology::Ring),
            "tree" => Some(Topology::Tree),
            _ => {
                let rest = label.strip_prefix("mesh")?;
                let (degree, seed) = rest.split_once('x')?;
                Some(Topology::Mesh {
                    degree: degree.parse().ok()?,
                    seed: seed.parse().ok()?,
                })
            }
        }
    }
}

/// Parameters of the scatternet scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScatternetScenarioParams {
    /// Number of piconets (≥ 1; one piconet is Fig. 4).
    pub piconets: u16,
    /// The delay bound every per-piconet GS flow requests.
    pub delay_requirement: SimDuration,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Warm-up excluded from measurements (per piconet and chain).
    pub warmup: SimDuration,
    /// Include the best-effort load: all four Fig. 4 pairs (S4–S7) on
    /// one piconet, the reduced S4/S5 pairs per piconet in a scatternet.
    pub include_be: bool,
    /// Bridge rendezvous cycle; each bridge spends half in each piconet.
    /// Unused at one piconet.
    pub bridge_cycle: SimDuration,
    /// End-to-end deadline for the bridged chain(s). `None` reproduces the
    /// measured-only PR 3 scenario (bridge hops polled at derived rates
    /// with no composed guarantee); `Some` runs the multi-hop admission
    /// test — every traversed piconet admits its hop atomically and the
    /// scenario records the provable composed bound per chain. Needs at
    /// least two piconets.
    pub chain_deadline: Option<SimDuration>,
    /// Add a second chain crossing every bridge in the *reverse* direction
    /// (M(N−1) → … → M0), so both rendezvous windows of each bridge carry
    /// guaranteed traffic and the residence term is stressed under
    /// contention. Needs at least two piconets.
    pub bidirectional: bool,
    /// Multiplier on every BE flow's Fig. 4 rate (1.0 = the paper's
    /// load): finite, positive and at most 100, or `try_build` returns
    /// an error.
    pub be_load_scale: f64,
    /// How the BE flows generate traffic.
    pub be_source_mix: BeSourceMix,
    /// How the piconets are wired together; [`Topology::Chain`] at one
    /// piconet, which has nothing to wire. Ring and tree topologies
    /// support neither `chain_deadline` (multi-hop admission is derived
    /// for the line and the mesh) nor `bidirectional`; trees and meshes
    /// additionally require `include_be == false` (their extra bridge
    /// roles ride on the best-effort slaves).
    pub topology: Topology,
}

impl ScatternetScenarioParams {
    /// Defaults matching [`PaperScenarioParams`](crate::PaperScenarioParams)
    /// with `n` piconets and a 20 ms rendezvous cycle; `chained(1)` is the
    /// Fig. 4 piconet.
    pub fn chained(n: u16) -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            piconets: n,
            delay_requirement: SimDuration::from_millis(40),
            seed: 1,
            warmup: SimDuration::from_secs(2),
            include_be: true,
            bridge_cycle: SimDuration::from_millis(20),
            chain_deadline: None,
            bidirectional: false,
            be_load_scale: 1.0,
            be_source_mix: BeSourceMix::Cbr,
            topology: Topology::Chain,
        }
    }

    /// [`ScatternetScenarioParams::chained`] closed into a ring.
    pub fn ring(n: u16) -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            topology: Topology::Ring,
            ..ScatternetScenarioParams::chained(n)
        }
    }

    /// A fanout-2 tree over `n` piconets (best-effort load off — S5
    /// carries second out-bridges).
    pub fn tree(n: u16) -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            topology: Topology::Tree,
            include_be: false,
            ..ScatternetScenarioParams::chained(n)
        }
    }

    /// A random-geometric mesh over `n` piconets (best-effort load off —
    /// bridge roles spill onto the best-effort slaves).
    pub fn mesh(n: u16, degree: u8, seed: u64) -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            topology: Topology::Mesh { degree, seed },
            include_be: false,
            ..ScatternetScenarioParams::chained(n)
        }
    }

    /// Every shape rule of [`ScatternetScenario::try_build`]: a piconet
    /// count of at least one, a best-effort load scale in range
    /// ([`check_be_load_scale`]), no scatternet-only axis (non-chain
    /// topology, `chain_deadline`, `bidirectional`) on the lone Fig. 4
    /// piconet, valid presence windows for both halves of the bridge
    /// cycle, the combinations the topology supports (see
    /// [`ScatternetScenarioParams::topology`]) and the mesh degree. Cheap
    /// and allocation-free unless it fails, so
    /// [`ScenarioGrid::validate`](crate::ScenarioGrid::validate) runs it
    /// for every cell shape without building a scenario.
    pub(crate) fn check(&self) -> Result<(), String> {
        check_be_load_scale(self.be_load_scale)?;
        if self.piconets == 0 {
            return Err("piconet count 0 names no scenario (use 1 for Fig. 4)".into());
        }
        if self.piconets == 1 {
            // The lone piconet is Fig. 4: no bridge to wire, admit a
            // chain over or cross in reverse.
            if self.topology != Topology::Chain
                || self.chain_deadline.is_some()
                || self.bidirectional
            {
                return Err(
                    "chain_deadline/bidirectional/non-chain topologies are scatternet \
                     axes; they are undefined for one piconet (Fig. 4)"
                        .into(),
                );
            }
            return Ok(());
        }
        // Every bridge spends half its cycle in each piconet, and both
        // halves must be valid presence windows (positive, slot-pair
        // aligned), or the simulator rejects the bridge.
        let dwell = self.bridge_cycle / 2;
        PresenceWindow::new(self.bridge_cycle, SimDuration::ZERO, dwell)
            .and_then(|_| PresenceWindow::new(self.bridge_cycle, dwell, self.bridge_cycle - dwell))
            .map_err(|e| format!("bridge_cycle {}: {e}", self.bridge_cycle))?;
        let is_mesh = matches!(self.topology, Topology::Mesh { .. });
        if self.topology != Topology::Chain {
            let label = self.topology.label();
            if self.chain_deadline.is_some() && !is_mesh {
                return Err(format!(
                    "chain_deadline (multi-hop admission) is derived for the chain \
                     topology only, not `{label}`"
                ));
            }
            if self.bidirectional {
                return Err(format!(
                    "bidirectional reverse chains exist in the chain topology only, \
                     not `{label}`"
                ));
            }
        }
        if self.topology == Topology::Tree && self.include_be {
            return Err(format!(
                "tree topologies use S{TREE_SECOND_OUT_SLAVE} for second out-bridges; \
                 set include_be to false"
            ));
        }
        if let Topology::Mesh { degree, .. } = self.topology {
            if !(2..=4).contains(&degree) {
                return Err(format!(
                    "mesh degree {degree} out of range: 2..=4 bridge roles per piconet"
                ));
            }
            if self.include_be {
                return Err(
                    "mesh topologies allocate bridge roles down from S7 into the \
                     best-effort slaves; set include_be to false"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

/// The supported range of `be_load_scale`: finite, positive and at most
/// 100. The cap keeps the shortest scaled CBR interval far above the slot
/// grid — beyond it a cell's event count explodes and the load is
/// unschedulable anyway — and a value outside the range would build
/// best-effort sources with an invalid rate.
pub(crate) fn check_be_load_scale(scale: f64) -> Result<(), String> {
    if scale.is_finite() && scale > 0.0 && scale <= 100.0 {
        Ok(())
    } else {
        Err(format!(
            "be_load_scale {scale} is outside the supported (0, 100] range"
        ))
    }
}

/// The sanitizer/bisector corpus: one small scenario per topology class
/// (chain, ring, mesh), shared by the piconet mutation-corpus tests, the
/// `btgs-analyze -- --bisect` CLI and CI's sanitized parallel-equivalence
/// smoke — so all three surfaces prove the same engine on the same
/// workloads. Short warmups keep a corpus run cheap; the default CBR load
/// keeps islands busy across bridge handoffs, which the lookahead-safety
/// and staging-order checks need to bite.
pub fn sanitizer_corpus() -> Vec<(&'static str, ScatternetScenarioParams)> {
    let tune = |mut p: ScatternetScenarioParams| {
        p.warmup = SimDuration::from_millis(500);
        p
    };
    vec![
        ("chain", tune(ScatternetScenarioParams::chained(3))),
        ("ring", tune(ScatternetScenarioParams::ring(4))),
        ("mesh", tune(ScatternetScenarioParams::mesh(5, 2, 7))),
    ]
}

/// A fully derived instance of the scenario: the Fig. 4 piconet, or
/// chained piconets.
#[derive(Clone, Debug)]
pub struct ScatternetScenario {
    /// The parameters it was built from.
    pub params: ScatternetScenarioParams,
    /// The scatternet configuration (piconets, bridges, the chain(s)).
    pub config: ScatternetConfig,
    /// Per-piconet GS schedules (paper entities plus bridge-hop entities).
    pub outcomes: Vec<AdmissionOutcome>,
    /// Per-piconet GS flow plans, paper flows and bridge hops alike.
    pub gs_plans: Vec<Vec<GsFlowPlan>>,
    /// The multi-hop admission grants, in [`ScatternetConfig::chains`]
    /// order. Empty when `params.chain_deadline` is `None` (measured-only
    /// chains carry no composed guarantee).
    pub chain_grants: Vec<ChainGrant>,
}

/// Per-piconet entity definitions: `(slave, [(flow id, direction), …])`
/// in priority order — the shape [`derive_gs_schedule`] consumes.
type EntityDefs = Vec<(AmAddr, Vec<(u32, Direction)>)>;

fn slave(n: u8) -> AmAddr {
    AmAddr::new(n).expect("scenario slave addresses are 1..=7")
}

/// Uplink hop id keyed by `p` within the `base` block (chain/ring: the
/// flow entering piconet `p` through its S7 bridge identity; tree: the
/// flow entering child `p`; mesh: the flow entering edge `p`'s downstream
/// piconet).
fn hop_in_id(base: u32, p: u16) -> u32 {
    base + 2 * p as u32
}

/// Downlink hop id keyed by `p` within the `base` block (chain/ring: the
/// flow leaving piconet `p` toward its out-bridge; tree: the flow leaving
/// child `p`'s parent toward it; mesh: the flow leaving edge `p`'s
/// upstream piconet).
fn hop_out_id(base: u32, p: u16) -> u32 {
    base + 1 + 2 * p as u32
}

/// Reverse-chain hop leaving piconet `p` toward piconet `p − 1` (downlink
/// to the bridge-in slave); exists for `p ≥ 1`.
fn rev_out_id(rev_base: u32, p: u16) -> u32 {
    rev_base + 2 * p as u32
}

/// Reverse-chain hop entering piconet `p` from piconet `p + 1` (uplink
/// from the bridge-out slave); exists for `p ≤ n − 2`.
fn rev_in_id(rev_base: u32, p: u16) -> u32 {
    rev_base + 1 + 2 * p as u32
}

/// One bridge edge of the topology: packets flow `up_pic → down_pic`
/// through a bridge slave that is `out_slave` in `up_pic` and `in_slave`
/// in `down_pic`.
#[derive(Clone, Copy, Debug)]
struct EdgeDef {
    up_pic: u16,
    down_pic: u16,
    out_slave: u8,
    in_slave: u8,
    /// Downlink hop id in `up_pic` (master → bridge).
    out_flow: u32,
    /// Uplink hop id in `down_pic` (bridge → master).
    in_flow: u32,
}

/// The bridge edges of the scenario's topology, in deterministic order
/// (chain position / wrap last / tree child index / mesh build order).
fn topology_edges(params: &ScatternetScenarioParams) -> Vec<EdgeDef> {
    let n = params.piconets;
    let base = chain_id_base(n);
    let chain_edge = |p: u16| EdgeDef {
        up_pic: p,
        down_pic: p + 1,
        out_slave: BRIDGE_OUT_SLAVE,
        in_slave: BRIDGE_IN_SLAVE,
        out_flow: hop_out_id(base, p),
        in_flow: hop_in_id(base, p + 1),
    };
    match params.topology {
        Topology::Chain => (0..n - 1).map(chain_edge).collect(),
        Topology::Ring => {
            let mut edges: Vec<EdgeDef> = (0..n - 1).map(chain_edge).collect();
            edges.push(EdgeDef {
                up_pic: n - 1,
                down_pic: 0,
                out_slave: BRIDGE_OUT_SLAVE,
                in_slave: BRIDGE_IN_SLAVE,
                out_flow: hop_out_id(base, n - 1),
                in_flow: hop_in_id(base, 0),
            });
            edges
        }
        Topology::Tree => (1..n)
            .map(|c| EdgeDef {
                up_pic: (c - 1) / 2,
                down_pic: c,
                // The first child rides the regular out-bridge slave; the
                // second child needs a second radio on the parent.
                out_slave: if c % 2 == 1 {
                    BRIDGE_OUT_SLAVE
                } else {
                    TREE_SECOND_OUT_SLAVE
                },
                in_slave: BRIDGE_IN_SLAVE,
                out_flow: hop_out_id(base, c),
                in_flow: hop_in_id(base, c),
            })
            .collect(),
        Topology::Mesh { degree, seed } => mesh_edges(n, degree, seed, base),
    }
}

/// The deterministic random-geometric mesh builder.
///
/// Piconets get pseudo-random positions on a million-unit square; each
/// piconet `k ≥ 1` bridges to its nearest already-placed piconet with a
/// free bridge slot (squared distance, ties to the lower id). Every
/// piconet has `degree` slots allocated downward from S7, and with
/// `degree ≥ 2` a counting argument guarantees a free earlier slot always
/// exists (`k` earlier piconets hold `k·degree ≥ 2k` slots while the
/// `k − 1` spanning edges consume `2(k − 1)`), so the mesh is connected
/// by construction. `degree == 4` densifies the spanning tree with one
/// extra cross edge per piconet where both endpoints still have slots.
/// Hop flow ids are keyed by edge index within the `base` block.
fn mesh_edges(n: u16, degree: u8, seed: u64, base: u32) -> Vec<EdgeDef> {
    let cap = degree.clamp(2, 4);
    let mut rng = DetRng::seed_from_u64(seed);
    let pos: Vec<(i64, i64)> = (0..n)
        .map(|_| (rng.below(1_000_000) as i64, rng.below(1_000_000) as i64))
        .collect();
    let d2 = |a: usize, b: usize| {
        let dx = pos[a].0 - pos[b].0;
        let dy = pos[a].1 - pos[b].1;
        dx * dx + dy * dy
    };
    // Bridge roles allocated per piconet, S7 downward: role i → S(7−i).
    let mut used: Vec<u8> = vec![0; n as usize];
    let mut edges: Vec<EdgeDef> = Vec::with_capacity(2 * n as usize);
    let push_edge = |edges: &mut Vec<EdgeDef>, used: &mut Vec<u8>, j: usize, k: usize| {
        let e = edges.len() as u16;
        let out_slave = BRIDGE_IN_SLAVE - used[j];
        let in_slave = BRIDGE_IN_SLAVE - used[k];
        used[j] += 1;
        used[k] += 1;
        edges.push(EdgeDef {
            up_pic: j as u16,
            down_pic: k as u16,
            out_slave,
            in_slave,
            out_flow: hop_out_id(base, e),
            in_flow: hop_in_id(base, e),
        });
    };
    for k in 1..n as usize {
        let j = (0..k)
            .filter(|&j| used[j] < cap)
            .min_by_key(|&j| (d2(j, k), j))
            .expect("degree >= 2 always leaves a free earlier slot");
        push_edge(&mut edges, &mut used, j, k);
    }
    if cap == 4 {
        // Cross edges close geometric cycles: nearest earlier non-adjacent
        // piconet with slots free on both ends.
        for k in 2..n as usize {
            if used[k] >= cap {
                continue;
            }
            let adjacent: Vec<usize> = edges
                .iter()
                .filter_map(|e| match (e.up_pic as usize, e.down_pic as usize) {
                    (j, d) if d == k => Some(j),
                    (j, d) if j == k => Some(d),
                    _ => None,
                })
                .collect();
            if let Some(j) = (0..k)
                .filter(|&j| used[j] < cap && !adjacent.contains(&j))
                .min_by_key(|&j| (d2(j, k), j))
            {
                push_edge(&mut edges, &mut used, j, k);
            }
        }
    }
    edges
}

/// Longest chain length (in edges) a mesh path segment may cover.
const MESH_SEGMENT_EDGES: usize = 3;

/// Cuts the mesh's edge list into chain segments: edge order is scanned
/// once, and an edge extends the segment currently ending at its upstream
/// piconet (master relay) unless that segment already spans
/// [`MESH_SEGMENT_EDGES`] edges — otherwise it starts a new segment.
/// Every edge lands in exactly one segment, so every bridge window
/// carries chain traffic.
fn mesh_chain_segments(edges: &[EdgeDef]) -> Vec<Vec<usize>> {
    let mut segments: Vec<Vec<usize>> = Vec::new();
    // Piconet → index of the segment currently extendable from it. A
    // BTreeMap, not a HashMap: the map is keyed-access-only today, but
    // scenario derivation feeds the byte-identity invariant and an ordered
    // map keeps any future iteration deterministic by construction
    // (and off the determinism lint's waiver list).
    let mut extendable: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
    for (ei, e) in edges.iter().enumerate() {
        match extendable.remove(&e.up_pic) {
            Some(si) if segments[si].len() < MESH_SEGMENT_EDGES => {
                segments[si].push(ei);
                if segments[si].len() < MESH_SEGMENT_EDGES {
                    extendable.insert(e.down_pic, si);
                }
            }
            _ => {
                segments.push(vec![ei]);
                extendable.insert(e.down_pic, segments.len() - 1);
            }
        }
    }
    segments
}

impl ScatternetScenario {
    /// Derives the scenario.
    ///
    /// # Panics
    ///
    /// Panics wherever [`ScatternetScenario::try_build`] returns an
    /// error: an unsupported shape (see its Errors section) or, with a
    /// `chain_deadline`, a chain the multi-hop admission rejects. Use
    /// `try_build` to handle rejection.
    pub fn build(params: ScatternetScenarioParams) -> ScatternetScenario {
        ScatternetScenario::try_build(params)
            .unwrap_or_else(|e| panic!("scatternet scenario rejected: {e}"))
    }

    /// Derives the scenario, surfacing unsupported shapes and
    /// chain-admission rejections as errors instead of panicking. One
    /// piconet derives exactly the Fig. 4 piconet of
    /// [`PaperScenario`](crate::PaperScenario).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated shape rule: zero piconets; a
    /// non-chain topology, `chain_deadline` or `bidirectional` at one
    /// piconet; at two or more, a `bridge_cycle` whose halves are not
    /// valid presence windows (zero, or off the 1.25 ms slot-pair grid),
    /// a non-chain topology with `chain_deadline` (the mesh excepted) or
    /// `bidirectional`, a tree or mesh with `include_be`, or a mesh
    /// degree outside 2..=4. With `params.chain_deadline` set, returns
    /// the [`ChainAdmissionError`](crate::ChainAdmissionError) rendering
    /// when a chain cannot be admitted.
    pub fn try_build(params: ScatternetScenarioParams) -> Result<ScatternetScenario, String> {
        params.check()?;
        let n = params.piconets;
        let is_mesh = matches!(params.topology, Topology::Mesh { .. });
        let allowed = vec![PacketType::Dh1, PacketType::Dh3];
        let edges = topology_edges(&params);
        let chains = derive_chain_paths(&params, &edges, &allowed);

        // Per-piconet entity definitions: the paper's order, then the
        // bridge roles (lowest priority, so the paper flows keep their
        // exact plans). With bidirectional traffic the reverse hops fold
        // into the bridge entities as piggybacked opposite-direction
        // flows.
        //
        // Capacity note for the admission path: a guaranteed bridge hop
        // needs a presence-compensated poll interval `x ≤ η/r − absence`
        // (see `ScatternetAdmissionController`'s module docs, with
        // `absence = cycle − dwell + U` since a GS poll also needs a full
        // segment exchange to fit before departure) *and* `x ≥ y`, so a
        // hop entity can only hold a priority whose `y` leaves that
        // window open — priority 1 or 2 for the default rendezvous
        // schedule. The full paper population leaves no such slot — the
        // measured-only path runs bridge hops over-committed with no
        // guarantee (exactly PR 3's behaviour); the admission path
        // instead *enforces* the capacity limit: end piconets trade their
        // S3 flow for the guaranteed hop slot, and transit piconets (both
        // bridge roles) carry only bridged traffic.
        let guarantee_mode = params.chain_deadline.is_some();
        let mut all_defs: Vec<EntityDefs> = Vec::with_capacity(n as usize);
        for p in 0..n {
            let base = PICONET_ID_STRIDE * p as u32;
            let mut defs: EntityDefs = vec![
                (slave(1), vec![(base + 1, Direction::SlaveToMaster)]),
                (
                    slave(2),
                    vec![
                        (base + 2, Direction::MasterToSlave),
                        (base + 3, Direction::SlaveToMaster),
                    ],
                ),
                (slave(3), vec![(base + 4, Direction::SlaveToMaster)]),
            ];
            if is_mesh {
                // Mesh piconets are transit-only in every mode: all of
                // them hold bridge roles, and the mesh cells exist to
                // stress the relay fabric — stacking the full Fig. 4
                // population on top would leave the bridge hops
                // over-committed on every node at once (a uniform
                // overload, not a topology study).
                defs.clear();
            } else if guarantee_mode {
                // See the capacity note above.
                defs.remove(2); // S3
                                // Transit piconets carry bridged traffic only.
                if p > 0 && p < n - 1 {
                    defs.clear();
                }
            }
            let rev_base = rev_chain_id_base(n);
            for e in edges.iter().filter(|e| e.down_pic == p) {
                let mut flows = vec![(e.in_flow, Direction::SlaveToMaster)];
                if params.bidirectional {
                    // Chain topology only: the reverse chain's downlink
                    // piggybacks on the in-bridge entity.
                    flows.push((rev_out_id(rev_base, p), Direction::MasterToSlave));
                }
                defs.push((slave(e.in_slave), flows));
            }
            for e in edges.iter().filter(|e| e.up_pic == p) {
                let mut flows = vec![(e.out_flow, Direction::MasterToSlave)];
                if params.bidirectional {
                    flows.push((rev_in_id(rev_base, p), Direction::SlaveToMaster));
                }
                defs.push((slave(e.out_slave), flows));
            }
            all_defs.push(defs);
        }

        let (outcomes, gs_plans, chain_grants) = match params.chain_deadline {
            None => {
                // Measured-only (PR 3) path: the whole schedule, bridge
                // hops included, derives from the per-piconet requirement.
                let mut outcomes = Vec::with_capacity(n as usize);
                let mut gs_plans = Vec::with_capacity(n as usize);
                for defs in &all_defs {
                    let (outcome, plans) =
                        derive_gs_schedule(defs, params.delay_requirement, &allowed);
                    outcomes.push(outcome);
                    gs_plans.push(plans);
                }
                (outcomes, gs_plans, Vec::new())
            }
            Some(deadline) => admit_chains(&params, &all_defs, &chains, deadline, &allowed)?,
        };

        let mut piconets = Vec::with_capacity(n as usize);
        for (p, plans) in gs_plans.iter().enumerate() {
            let base = PICONET_ID_STRIDE * p as u32;
            let mut config = PiconetConfig::new(allowed.clone()).with_warmup(params.warmup);
            for plan in plans {
                config = config.with_flow(FlowSpec::new(
                    plan.request.id,
                    plan.request.slave,
                    plan.request.direction,
                    LogicalChannel::GuaranteedService,
                ));
            }
            if params.include_be {
                // A lone piconet carries all four Fig. 4 best-effort
                // pairs. In a scatternet S6/S7 carry bridge roles, so only
                // the two lightest ride along (S4 and S5).
                let pairs = if edges.is_empty() {
                    BE_RATES_KBPS.len()
                } else {
                    2
                };
                for k in 0..pairs as u32 {
                    let sl = slave(4 + k as u8);
                    config = config
                        .with_flow(FlowSpec::new(
                            FlowId(base + 5 + 2 * k),
                            sl,
                            Direction::MasterToSlave,
                            LogicalChannel::BestEffort,
                        ))
                        .with_flow(FlowSpec::new(
                            FlowId(base + 6 + 2 * k),
                            sl,
                            Direction::SlaveToMaster,
                            LogicalChannel::BestEffort,
                        ));
                }
            }
            piconets.push(config);
        }

        let bridges = edges
            .iter()
            .map(|e| BridgeSpec {
                upstream: ScopedSlave::new(PiconetId(e.up_pic), slave(e.out_slave)),
                downstream: ScopedSlave::new(PiconetId(e.down_pic), slave(e.in_slave)),
                cycle: params.bridge_cycle,
                dwell_upstream: params.bridge_cycle / 2,
            })
            .collect();
        let chain_specs = chains
            .iter()
            .enumerate()
            .map(|(ci, path)| {
                let spec = ChainSpec::new(path.iter().map(|h| h.flow).collect());
                match chain_grants.get(ci) {
                    Some(grant) => spec.with_intervals(grant.hop_intervals()),
                    None => spec,
                }
            })
            .collect();
        let config = ScatternetConfig {
            piconets,
            bridges,
            chains: chain_specs,
        };

        Ok(ScatternetScenario {
            params,
            config,
            outcomes,
            gs_plans,
            chain_grants,
        })
    }

    /// The entry hops of every chain (each needs a registered source;
    /// every other chain hop is relay-fed).
    pub fn chain_entries(&self) -> Vec<FlowId> {
        self.config.chains.iter().map(|c| c.hops[0]).collect()
    }

    /// The traffic sources of every source-fed flow, seeded from
    /// `params.seed`. CBR phases are staggered pseudo-randomly within one
    /// interval, and each piconet's sources by a per-piconet offset, so
    /// neither flows nor piconets run in lockstep.
    pub fn sources(&self) -> Vec<Box<dyn Source>> {
        let p = &self.params;
        let base = chain_id_base(p.piconets);
        let entries = self.chain_entries();
        scenario_sources(
            p.seed,
            p.be_load_scale,
            p.be_source_mix,
            &self.config.piconets,
            |id| id.0 >= base && !entries.contains(&id),
        )
    }

    /// Builds the per-piconet pollers of the given kind.
    pub fn pollers(&self, kind: PollerKind) -> Vec<Box<dyn Poller>> {
        self.outcomes
            .iter()
            .map(|outcome| Box::new(gs_poller(outcome, kind)) as Box<dyn Poller>)
            .collect()
    }

    /// Builds the simulator over ideal radio channels.
    ///
    /// # Errors
    ///
    /// Propagates scatternet validation errors (none are expected for a
    /// derived scenario).
    pub fn simulator(&self, kind: PollerKind) -> Result<ScatternetSim, PiconetError> {
        let channels: Vec<Box<dyn ChannelModel>> = self
            .config
            .piconets
            .iter()
            .map(|_| Box::new(IdealChannel) as Box<dyn ChannelModel>)
            .collect();
        let mut sim = ScatternetSim::new(self.config.clone(), self.pollers(kind), channels)?;
        for src in self.sources() {
            sim.add_source(src)?;
        }
        Ok(sim)
    }

    /// Runs the scenario to `horizon` with the given poller kind.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (none are expected for a
    /// derived scenario).
    pub fn run(
        &self,
        kind: PollerKind,
        horizon: SimTime,
    ) -> Result<ScatternetReport, PiconetError> {
        self.simulator(kind)?.run(horizon)
    }
}

/// The ordered hop paths of the scenario's chain(s) — forward, plus the
/// reverse chain when bidirectional — with per-hop residence and absence
/// terms derived from the bridge rendezvous schedule.
fn derive_chain_paths(
    params: &ScatternetScenarioParams,
    edges: &[EdgeDef],
    allowed: &[PacketType],
) -> Vec<Vec<ChainHopSpec>> {
    if edges.is_empty() {
        return Vec::new(); // a lone piconet has no bridge to chain over
    }
    let n = params.piconets;
    let cycle = params.bridge_cycle;
    // Every bridge spends the first half of its cycle upstream (its S6
    // identity) and the rest downstream (S7).
    let up_len = cycle / 2;
    let down_len = cycle - up_len;
    // A GS poll of a bridge hop only executes while a *full* segment
    // exchange still fits before departure, so the effective absence gap
    // between pollable instants is `cycle − dwell + U` — the schedule gap
    // guarded by the exchange time ([`worst_case_residence`]'s `guard`).
    let u = crate::timing::piconet_u(allowed);
    let hop = |p: u16,
               flow: u32,
               sl: u8,
               direction: Direction,
               residence_in: SimDuration,
               window_len: SimDuration| ChainHopSpec {
        piconet: PiconetId(p),
        flow: FlowId(flow),
        slave: slave(sl),
        direction,
        residence_in,
        absence: worst_case_residence(cycle, window_len, u),
    };

    // Every edge contributes the same two hops: a master-to-slave exit
    // in the upstream piconet (no residence — the packet leaves with the
    // bridge) followed by a slave-to-master entry in the downstream
    // piconet once the bridge's S7 window opens.
    let out_hop = |e: &EdgeDef| {
        hop(
            e.up_pic,
            e.out_flow,
            e.out_slave,
            Direction::MasterToSlave,
            SimDuration::ZERO,
            up_len,
        )
    };
    let in_hop = |e: &EdgeDef| {
        hop(
            e.down_pic,
            e.in_flow,
            e.in_slave,
            Direction::SlaveToMaster,
            worst_case_residence(cycle, down_len, SimDuration::ZERO),
            down_len,
        )
    };
    let span = |edges: &[EdgeDef]| -> Vec<ChainHopSpec> {
        edges.iter().flat_map(|e| [out_hop(e), in_hop(e)]).collect()
    };

    let mut chains = match params.topology {
        // One end-to-end chain M0 → M(N−1) over the consecutive edges.
        Topology::Chain => vec![span(edges)],
        // The forward chain plus a separate two-hop flow over the wrap
        // edge M(N−1) → M0 (a single flow around the whole ring would
        // revisit its first hop).
        Topology::Ring => {
            let (wrap, line) = edges.split_last().expect("ring has edges");
            vec![span(line), span(std::slice::from_ref(wrap))]
        }
        // One two-hop parent→child flow per tree edge.
        Topology::Tree => edges
            .iter()
            .map(|e| span(std::slice::from_ref(e)))
            .collect(),
        // One multi-hop chain per spanning-path segment, covering every
        // mesh edge exactly once.
        Topology::Mesh { .. } => mesh_chain_segments(edges)
            .into_iter()
            .map(|segment| {
                let seg_edges: Vec<EdgeDef> = segment.iter().map(|&ei| edges[ei]).collect();
                span(&seg_edges)
            })
            .collect(),
    };
    if params.bidirectional {
        // Chain topology only (validated in `try_build`).
        // M(N−1) → … → M0: each bridge is crossed downstream→upstream, so
        // the handoff waits for the bridge's *upstream* (S6) window.
        let rev_base = rev_chain_id_base(n);
        let mut reverse = Vec::with_capacity(2 * (n as usize - 1));
        for p in (1..n).rev() {
            reverse.push(hop(
                p,
                rev_out_id(rev_base, p),
                BRIDGE_IN_SLAVE,
                Direction::MasterToSlave,
                SimDuration::ZERO,
                down_len,
            ));
            reverse.push(hop(
                p - 1,
                rev_in_id(rev_base, p - 1),
                BRIDGE_OUT_SLAVE,
                Direction::SlaveToMaster,
                worst_case_residence(cycle, up_len, SimDuration::ZERO),
                up_len,
            ));
        }
        chains.push(reverse);
    }
    chains
}

/// Per-piconet outcomes and plans plus the chain grants produced by the
/// admission path.
type AdmittedSchedules = (Vec<AdmissionOutcome>, Vec<Vec<GsFlowPlan>>, Vec<ChainGrant>);

/// The multi-hop admission path of [`ScatternetScenario::try_build`]:
/// seeds one [`ScatternetAdmissionController`] with every piconet's paper
/// flows at their derived single-piconet rates, admits the chain(s)
/// atomically against `deadline`, and returns the granted schedules.
fn admit_chains(
    params: &ScatternetScenarioParams,
    all_defs: &[EntityDefs],
    chains: &[Vec<ChainHopSpec>],
    deadline: SimDuration,
    allowed: &[PacketType],
) -> Result<AdmittedSchedules, String> {
    let n = params.piconets as usize;
    let base = chain_id_base(params.piconets);
    let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), n);
    let mut gs_plans: Vec<Vec<GsFlowPlan>> = Vec::with_capacity(n);
    for (p, defs) in all_defs.iter().enumerate() {
        // Paper entities only (the prefix with ids below the chain
        // block): their rates derive exactly as in the single-piconet
        // scenario; the bridge hops are granted by chain admission below
        // instead.
        let paper = defs
            .iter()
            .take_while(|(_, flows)| flows.iter().all(|(id, _)| *id < base))
            .count();
        let (_, plans) = derive_gs_schedule(&defs[..paper], params.delay_requirement, allowed);
        for plan in &plans {
            ctl.try_admit_local(PiconetId(p as u16), plan.request.clone())
                .map_err(|e| format!("seeding piconet {p}: {e}"))?;
        }
        gs_plans.push(plans);
    }
    for (ci, path) in chains.iter().enumerate() {
        ctl.admit_chain(ChainRequest {
            id: ci as u32,
            tspec: paper_tspec(),
            deadline,
            hops: path.clone(),
        })
        .map_err(|e| format!("chain {ci}: {e}"))?;
    }
    // Read the grants back only now: a later chain's admission may have
    // shifted an earlier chain's priorities (within its deadline), and the
    // controller keeps every stored grant re-derived against the schedule
    // actually in force.
    let grants = ctl.chains().to_vec();
    for (grant, path) in grants.iter().zip(chains) {
        for (hop_grant, hop_spec) in grant.hops.iter().zip(path) {
            gs_plans[hop_spec.piconet.index()].push(GsFlowPlan {
                request: GsRequest::new(
                    hop_spec.flow,
                    hop_spec.slave,
                    hop_spec.direction,
                    paper_tspec(),
                    hop_grant.rate,
                ),
                y: hop_grant.y,
                achievable_bound: hop_grant.bound,
                guaranteed: grant.composed_bound <= grant.deadline,
            });
        }
    }
    for plans in &mut gs_plans {
        plans.sort_by_key(|p| p.request.id);
    }
    let outcomes = (0..n)
        .map(|p| ctl.piconet(PiconetId(p as u16)).outcome().clone())
        .collect();
    Ok((outcomes, gs_plans, grants))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_chained_topology() {
        let sc = ScatternetScenario::build(ScatternetScenarioParams::chained(3));
        assert_eq!(sc.config.piconets.len(), 3);
        assert_eq!(sc.config.bridges.len(), 2);
        assert_eq!(
            sc.config.chains[0].hops,
            vec![FlowId(901), FlowId(902), FlowId(903), FlowId(904)]
        );
        // P0: 4 GS + 1 hop out + 4 BE; P1: 4 GS + hop in + hop out + 4 BE;
        // P2: 4 GS + hop in + 4 BE.
        assert_eq!(sc.config.piconets[0].flows.len(), 9);
        assert_eq!(sc.config.piconets[1].flows.len(), 10);
        assert_eq!(sc.config.piconets[2].flows.len(), 9);
        for cfg in &sc.config.piconets {
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn nine_piconets_keep_the_historic_id_block() {
        let sc = ScatternetScenario::build(ScatternetScenarioParams::chained(9));
        assert_eq!(sc.config.piconets.len(), 9);
        assert_eq!(chain_id_base(9), CHAIN_ID_BASE);
        assert_eq!(rev_chain_id_base(9), REV_CHAIN_ID_BASE);
        // Highest paper-flow id stays below the chain id block.
        let max_id = sc
            .config
            .piconets
            .iter()
            .flat_map(|c| &c.flows)
            .map(|f| f.id.0)
            .filter(|id| *id < CHAIN_ID_BASE)
            .max()
            .unwrap();
        assert!(max_id < CHAIN_ID_BASE);
        assert!(sc.simulator(PollerKind::PfpGs).is_ok());
    }

    #[test]
    fn long_chains_widen_the_id_block() {
        // Beyond nine piconets the hop block slides past every paper
        // block (piconet 15's flows are 1501..1504 < chain_id_base(16)).
        let sc = ScatternetScenario::build(ScatternetScenarioParams::chained(16));
        assert_eq!(sc.config.piconets.len(), 16);
        assert_eq!(chain_id_base(16), 1600);
        let base = chain_id_base(16);
        assert_eq!(sc.config.chains[0].hops[0], FlowId(hop_out_id(base, 0)));
        assert_eq!(sc.config.chains[0].hops.len(), 30);
        let max_paper = sc
            .config
            .piconets
            .iter()
            .flat_map(|c| &c.flows)
            .map(|f| f.id.0)
            .filter(|id| *id < base)
            .max()
            .unwrap();
        assert!(max_paper < base);
        assert!(sc.simulator(PollerKind::PfpGs).is_ok());
    }

    #[test]
    fn builds_ring_topology() {
        let sc = ScatternetScenario::build(ScatternetScenarioParams::ring(4));
        // n bridges: the line's three plus the wrap P3/S6 → P0/S7.
        assert_eq!(sc.config.bridges.len(), 4);
        assert_eq!(sc.config.bridges[3].upstream.piconet, PiconetId(3));
        assert_eq!(sc.config.bridges[3].downstream.piconet, PiconetId(0));
        // Two chains: the forward line and the two-hop wrap chain.
        assert_eq!(sc.config.chains.len(), 2);
        let base = chain_id_base(4);
        assert_eq!(
            sc.config.chains[1].hops,
            vec![FlowId(hop_out_id(base, 3)), FlowId(hop_in_id(base, 0))]
        );
        // Every piconet now holds both bridge roles.
        for cfg in &sc.config.piconets {
            assert!(cfg.validate().is_ok());
            for sl in [BRIDGE_IN_SLAVE, BRIDGE_OUT_SLAVE] {
                assert!(cfg.flows.iter().any(|f| f.slave.get() == sl));
            }
        }
        // Both chains are source-fed at their entries and deliver.
        let mut params = ScatternetScenarioParams::ring(4);
        params.warmup = SimDuration::from_millis(500);
        let report = ScatternetScenario::build(params)
            .run(PollerKind::PfpGs, SimTime::from_secs(3))
            .unwrap();
        for (ci, chain) in report.chains.iter().enumerate() {
            assert!(
                chain.delivered_packets > 50,
                "ring chain {ci} delivered only {}",
                chain.delivered_packets
            );
        }
    }

    #[test]
    fn builds_tree_topology() {
        let sc = ScatternetScenario::build(ScatternetScenarioParams::tree(5));
        // One bridge and one two-hop chain per edge.
        assert_eq!(sc.config.bridges.len(), 4);
        assert_eq!(sc.config.chains.len(), 4);
        let base = chain_id_base(5);
        for (c, chain) in sc.config.chains.iter().enumerate() {
            let child = (c + 1) as u16;
            assert_eq!(
                chain.hops,
                vec![
                    FlowId(hop_out_id(base, child)),
                    FlowId(hop_in_id(base, child))
                ]
            );
        }
        // Piconet 0 parents children 1 and 2: S6 and S5 out-bridges.
        let p0_slaves: Vec<u8> = sc.config.piconets[0]
            .flows
            .iter()
            .map(|f| f.slave.get())
            .collect();
        assert!(p0_slaves.contains(&BRIDGE_OUT_SLAVE));
        assert!(p0_slaves.contains(&TREE_SECOND_OUT_SLAVE));
        for cfg in &sc.config.piconets {
            assert!(cfg.validate().is_ok());
        }
        let mut params = ScatternetScenarioParams::tree(5);
        params.warmup = SimDuration::from_millis(500);
        let report = ScatternetScenario::build(params)
            .run(PollerKind::PfpGs, SimTime::from_secs(3))
            .unwrap();
        for (ci, chain) in report.chains.iter().enumerate() {
            assert!(
                chain.delivered_packets > 50,
                "tree chain {ci} delivered only {}",
                chain.delivered_packets
            );
        }
    }

    #[test]
    fn non_chain_topologies_reject_chain_only_parameters() {
        let mut p = ScatternetScenarioParams::ring(3);
        p.chain_deadline = Some(SimDuration::from_millis(150));
        assert!(ScatternetScenario::try_build(p)
            .unwrap_err()
            .contains("chain topology only"));
        let mut p = ScatternetScenarioParams::ring(3);
        p.bidirectional = true;
        assert!(ScatternetScenario::try_build(p)
            .unwrap_err()
            .contains("chain topology only"));
        let mut p = ScatternetScenarioParams::tree(3);
        p.include_be = true;
        assert!(ScatternetScenario::try_build(p)
            .unwrap_err()
            .contains("include_be"));
    }

    #[test]
    fn unsupported_shapes_are_errors_not_panics() {
        // Each used to panic in `try_build` or build a scenario whose
        // simulator then failed.
        type Edit = fn(&mut ScatternetScenarioParams);
        let shapes: [(u16, Edit, &str); 11] = [
            (0, |_| {}, "piconet count 0"),
            (1, |p| p.topology = Topology::Ring, "scatternet axes"),
            (
                1,
                |p| p.chain_deadline = Some(SimDuration::from_millis(150)),
                "scatternet axes",
            ),
            (1, |p| p.bidirectional = true, "scatternet axes"),
            (2, |p| p.bridge_cycle = SimDuration::ZERO, "bridge_cycle"),
            (
                2,
                |p| p.bridge_cycle = SimDuration::from_millis(3),
                "bridge_cycle",
            ),
            // These built, and the run panicked in `be_source`.
            (1, |p| p.be_load_scale = f64::NAN, "be_load_scale"),
            (1, |p| p.be_load_scale = 0.0, "be_load_scale"),
            (2, |p| p.be_load_scale = -1.0, "be_load_scale"),
            (2, |p| p.be_load_scale = f64::INFINITY, "be_load_scale"),
            (1, |p| p.be_load_scale = 101.0, "be_load_scale"),
        ];
        for (piconets, edit, reason) in shapes {
            let mut params = ScatternetScenarioParams::chained(piconets);
            edit(&mut params);
            match ScatternetScenario::try_build(params) {
                Ok(_) => panic!("{params:?} built, but must be rejected"),
                Err(e) => assert!(e.contains(reason), "{params:?}: {e}"),
            }
        }
        assert!(ScatternetScenario::try_build(ScatternetScenarioParams::chained(1)).is_ok());
    }

    #[test]
    fn paper_entities_keep_single_piconet_plans() {
        use crate::scenario::{PaperScenario, PaperScenarioParams};
        let single = PaperScenario::build(PaperScenarioParams::default());
        let scatter = ScatternetScenario::build(ScatternetScenarioParams::chained(2));
        // Bridge entities are appended after the paper's three, so the
        // paper flows' schedules are identical in every piconet.
        for plans in &scatter.gs_plans {
            for (sp, pp) in plans.iter().zip(&single.gs_plans) {
                assert_eq!(sp.y, pp.y, "paper entity y must be unchanged");
                assert_eq!(sp.achievable_bound, pp.achievable_bound);
            }
            assert!(plans.len() > single.gs_plans.len(), "bridge hops present");
        }
    }

    #[test]
    fn sources_cover_exactly_the_source_fed_flows() {
        let sc = ScatternetScenario::build(ScatternetScenarioParams::chained(2));
        let ids: Vec<FlowId> = sc.sources().iter().map(|s| s.flow()).collect();
        // Chain entry is fed; the relay-fed hop is not.
        assert!(ids.contains(&FlowId(901)));
        assert!(!ids.contains(&FlowId(902)));
        // Per piconet: 4 GS + 4 BE, plus the one chain source.
        assert_eq!(ids.len(), 2 * 8 + 1);
        // Deterministic.
        let again: Vec<FlowId> = sc.sources().iter().map(|s| s.flow()).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn two_piconet_chain_runs_and_reports_end_to_end() {
        let mut params = ScatternetScenarioParams::chained(2);
        params.warmup = SimDuration::from_millis(500);
        let sc = ScatternetScenario::build(params);
        let report = sc.run(PollerKind::PfpGs, SimTime::from_secs(4)).unwrap();
        let chain = &report.chains[0];
        assert!(
            chain.delivered_packets > 100,
            "the bridged GS flow must flow: {} delivered",
            chain.delivered_packets
        );
        assert_eq!(chain.e2e.count() as u64, chain.delivered_packets);
        assert!(chain.residence.count() > 0);
        // Paper GS flows still deliver ~64 kbps in each piconet.
        for p in 0..2u16 {
            let r = report.piconet(PiconetId(p));
            for id in 1..=4u32 {
                let kbps = r.throughput_kbps(FlowId(PICONET_ID_STRIDE * p as u32 + id));
                assert!(
                    (kbps - 64.0).abs() < 4.0,
                    "P{p} flow {id}: {kbps} kbps (expected ~64)"
                );
            }
        }
    }
}

#[cfg(test)]
mod admission_path_tests {
    use super::*;
    use btgs_piconet::ScatternetReport;

    fn deadline_params(n: u16, deadline_ms: u64, bidirectional: bool) -> ScatternetScenarioParams {
        let mut params = ScatternetScenarioParams::chained(n);
        // At Dreq = 40 ms the paper flows' granted rates (x down to
        // 12.9 ms) leave no capacity for a guaranteed hop entity — the
        // admission test rightly rejects any chain. The paper's 46 ms
        // sweep point keeps every paper interval ≥ 15 ms; a 10 ms
        // rendezvous cycle keeps the absence gap (5 ms) inside the
        // presence-compensation window while each 5 ms dwell (8 slots)
        // still fits full DH3 exchanges.
        params.delay_requirement = SimDuration::from_millis(46);
        params.bridge_cycle = SimDuration::from_millis(10);
        params.warmup = SimDuration::from_millis(500);
        params.chain_deadline = Some(SimDuration::from_millis(deadline_ms));
        params.bidirectional = bidirectional;
        params
    }

    #[test]
    fn deadline_build_records_grants_and_intervals() {
        let sc = ScatternetScenario::build(deadline_params(2, 150, false));
        assert_eq!(sc.chain_grants.len(), 1);
        let grant = &sc.chain_grants[0];
        assert!(grant.composed_bound <= SimDuration::from_millis(150));
        assert_eq!(grant.hops.len(), 2);
        // The granted polling intervals ride on the ChainSpec.
        assert_eq!(sc.config.chains[0].hop_intervals, grant.hop_intervals());
        // Every hop flow has a guaranteed plan in its piconet.
        for hop in &grant.hops {
            let plan = sc.gs_plans[hop.piconet.index()]
                .iter()
                .find(|p| p.request.id == hop.flow)
                .expect("hop flow has a plan");
            assert!(plan.guaranteed);
            assert_eq!(plan.achievable_bound, hop.bound);
        }
        // End piconets trade S3 for the guaranteed hop slot, keeping
        // flows 1–3.
        let p0_gs: Vec<u32> = sc.config.piconets[0]
            .flows
            .iter()
            .filter(|f| f.id.0 < CHAIN_ID_BASE && f.channel.is_gs())
            .map(|f| f.id.0)
            .collect();
        assert_eq!(p0_gs, vec![1, 2, 3]);
    }

    #[test]
    fn transit_piconets_trade_local_flows_for_guaranteed_hops() {
        let sc = ScatternetScenario::build(deadline_params(3, 260, false));
        // Transit piconet 1 carries only bridged traffic: a guaranteed
        // hop needs a presence-compensated interval (priority 1 or 2)
        // that any local GS load would deny — exactly what the admission
        // test enforces.
        let transit_gs: Vec<u32> = sc.config.piconets[1]
            .flows
            .iter()
            .filter(|f| f.channel.is_gs() && f.id.0 < CHAIN_ID_BASE)
            .map(|f| f.id.0)
            .collect();
        assert_eq!(transit_gs, Vec::<u32>::new());
        // End piconets keep S1 and the S2 pair.
        assert!(sc.config.piconets[0].flows.iter().any(|f| f.id.0 == 3));
        assert!(sc.config.piconets[2].flows.iter().any(|f| f.id.0 == 203));
        assert!(!sc.config.piconets[0].flows.iter().any(|f| f.id.0 == 4));
        // The measured-only path still carries the full, over-committed
        // load (its chain has no guarantee).
        let measured = ScatternetScenario::build(ScatternetScenarioParams::chained(3));
        assert!(measured.config.piconets[1]
            .flows
            .iter()
            .any(|f| f.id.0 == 104));
    }

    #[test]
    fn infeasible_deadline_is_an_error_not_a_panic() {
        let err = ScatternetScenario::try_build(deadline_params(2, 30, false)).unwrap_err();
        assert!(
            err.contains("chain 0"),
            "error should name the rejected chain: {err}"
        );
    }

    #[test]
    fn bidirectional_scenario_builds_both_chains() {
        let sc = ScatternetScenario::build(deadline_params(2, 150, true));
        assert_eq!(sc.config.chains.len(), 2);
        assert_eq!(sc.chain_grants.len(), 2);
        let (base, rev_base) = (chain_id_base(2), rev_chain_id_base(2));
        assert_eq!(
            sc.config.chains[1].hops,
            vec![
                FlowId(rev_out_id(rev_base, 1)),
                FlowId(rev_in_id(rev_base, 0))
            ]
        );
        // Both entries are source-fed; relay-fed hops are not.
        let ids: Vec<FlowId> = sc.sources().iter().map(|s| s.flow()).collect();
        assert!(ids.contains(&FlowId(hop_out_id(base, 0))));
        assert!(ids.contains(&FlowId(rev_out_id(rev_base, 1))));
        assert!(!ids.contains(&FlowId(hop_in_id(base, 1))));
        assert!(!ids.contains(&FlowId(rev_in_id(rev_base, 0))));
        // Reverse hops piggyback on the forward bridge entities: the
        // bridge slaves' entities each serve two flows.
        for outcome in &sc.outcomes {
            for entity in &outcome.entities {
                if entity.slave.get() == BRIDGE_IN_SLAVE || entity.slave.get() == BRIDGE_OUT_SLAVE {
                    assert_eq!(entity.flow_ids.len(), 2, "bridge entity piggybacks");
                }
            }
        }
    }

    fn assert_chains_within_bounds(sc: &ScatternetScenario, report: &ScatternetReport) {
        for (ci, chain) in report.chains.iter().enumerate() {
            let grant = &sc.chain_grants[ci];
            assert!(
                chain.delivered_packets > 50,
                "chain {ci} delivered only {}",
                chain.delivered_packets
            );
            let measured = chain.e2e.max().expect("chain delivered");
            assert!(
                measured <= grant.composed_bound,
                "chain {ci}: measured e2e max {measured} exceeds the composed bound {}",
                grant.composed_bound
            );
        }
    }

    #[test]
    fn measured_e2e_never_exceeds_the_composed_bound_bidirectional() {
        // The tentpole claim, in-line: across both pollers, every admitted
        // chain's measured worst case stays inside the composed analytic
        // bound (the full grid runs in the validation binary / CI).
        let sc = ScatternetScenario::build(deadline_params(2, 150, true));
        for kind in [PollerKind::PfpGs, PollerKind::FixedGs] {
            let report = sc.run(kind, SimTime::from_secs(3)).unwrap();
            assert_chains_within_bounds(&sc, &report);
        }
    }

    #[test]
    fn three_piconet_admitted_chain_holds_its_bound() {
        let sc = ScatternetScenario::build(deadline_params(3, 260, false));
        let report = sc.run(PollerKind::PfpGs, SimTime::from_secs(3)).unwrap();
        assert_chains_within_bounds(&sc, &report);
    }
}
