//! `LSS105`/`LSS106`/`LSS107` — port-protocol composition checking.
//!
//! Modules declare interface automata over named port groups (`protocol
//! ins : consumer credit(depth) on in, credit;`). For every flattened
//! leaf-to-leaf wire whose two endpoints are the *primary* ports of two
//! bindings, this pass composes the declared automata and walks the
//! product's reachable states:
//!
//! * a state where one side can send an action the peer cannot receive is
//!   an **LSS105** protocol mismatch (value-dropping or overflow);
//! * a state with no joint move where both sides still have enabled
//!   (receive) transitions is an **LSS107** deadlock — each side waits on
//!   the other forever;
//! * a state where one side has terminated and the other merely idles in
//!   wait is quiescent, not a deadlock.
//!
//! Three direct checks run before the product, where the declared numbers
//! say more than reachability can: role orientation (a `consumer` group
//! cannot drive a wire), concrete credit over-issue (`credit(N)` producer
//! into a `credit(M)` consumer with `N > M`), and dangling handshake
//! channels (`valid_ready`/`req_resp` with a declared but unwired reverse
//! port).
//!
//! Wiring degrades automata exactly as §4.2 degrades unconnected ports:
//! a `credit` group whose reverse channel is unwired cannot exchange
//! credits, so the adaptive form becomes an unbounded stream and the
//! concrete producer form becomes a finite one — neither is an error by
//! itself. An annotated group talking to a peer with no declared protocol
//! is reported as **LSS106** only when the peer is *engaged* — the group's
//! reverse port wires back to that same peer — because only then does the
//! peer demonstrably participate in the discipline without declaring it.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use lss_ast::{FileId, Span};
use lss_netlist::{
    ActionDir, Instance, InstanceId, Netlist, PortId, ProtocolBinding, Role, Template, Wire,
};

use crate::diag::{Code, Finding};
use crate::{AnalysisCtx, Pass};

/// Product-automaton state-count bound; past this the pair is skipped
/// (declared automata are tiny, so this is a pathological-input guard).
const MAX_PRODUCT_STATES: usize = 4096;

/// Per-port flag bits: the port is some binding's reverse channel, and
/// (set during the wire scan) the port actually appears on a wire.
const REVERSE: u8 = 1;
const WIRED: u8 = 2;

/// Flat per-port flag table: `off[inst] + port` indexes `flags`.
struct PortTable<'a> {
    off: &'a [u32],
    flags: &'a [u8],
}

impl PortTable<'_> {
    fn wired(&self, inst: InstanceId, port: PortId) -> bool {
        self.flags[(self.off[inst.index()] + port.0) as usize] & WIRED != 0
    }
}

/// FNV-1a over fixed-width writes. The pass hashes nothing but small
/// integer tuples (instance/port ids, product states), where the default
/// DoS-resistant hasher costs more than the lookups it serves; keys are
/// compiler-internal ids, so collision attacks are not a concern.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }

    fn write_u32(&mut self, v: u32) {
        let h = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        self.0 = (h ^ v as u64).wrapping_mul(0x100000001b3);
    }
}

type FastSet<T> = HashSet<T, BuildHasherDefault<FnvHasher>>;

/// Checks protocol compatibility across every annotated connection
/// (`LSS105`, `LSS106`, `LSS107`).
pub struct ProtocolPass;

impl Pass for ProtocolPass {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn codes(&self) -> &'static [Code] {
        &[
            Code::ProtocolMismatch,
            Code::ProtocolUnannotatedPeer,
            Code::ProtocolDeadlock,
        ]
    }

    fn run(&self, ctx: &AnalysisCtx<'_>, findings: &mut Vec<Finding>) {
        let netlist = ctx.netlist;
        // Unannotated netlists pay one scan over the instance list and
        // nothing else.
        if netlist.instances.iter().all(|i| i.protocols.is_empty()) {
            return;
        }
        // Direct-indexed per-port tables. Port ids are dense within each
        // instance, so `off[i] + port` addresses flat arrays over every
        // port in the design: `flags` says whether a port is some
        // binding's reverse channel (and, after the wire scan, whether it
        // is actually wired), and `bidx` maps a primary port to its
        // binding's slot in `binds`. The per-wire loop below then
        // classifies each endpoint with two array reads — no per-binding
        // scans, even for corelib components that declare several groups.
        //
        // Each binding also gets a *shape id*: bindings that are
        // `same_shape` share one, so the clean-pair memo below compares
        // two integers instead of walking automata.
        const NO_BIND: u32 = u32::MAX;
        let mut off = vec![0u32; netlist.instances.len() + 1];
        for i in &netlist.instances {
            off[i.id.index() + 1] = i.ports.len() as u32;
        }
        for k in 1..off.len() {
            off[k] += off[k - 1];
        }
        let total_ports = *off.last().expect("offsets") as usize;
        let mut flags = vec![0u8; total_ports];
        let mut bidx = vec![NO_BIND; total_ports];
        let mut binds: Vec<(&Instance, &lss_netlist::ProtocolBinding, u32)> = Vec::new();
        let mut shapes: Vec<&lss_netlist::ProtocolBinding> = Vec::new();
        for i in &netlist.instances {
            let base = off[i.id.index()] as usize;
            for b in &i.protocols {
                let shape = match shapes.iter().position(|s| same_shape(s, b)) {
                    Some(k) => k as u32,
                    None => {
                        shapes.push(b);
                        (shapes.len() - 1) as u32
                    }
                };
                let slot = base + b.primary().0 as usize;
                // First binding wins on a doubly-annotated primary port,
                // in declaration order.
                if bidx[slot] == NO_BIND {
                    bidx[slot] = binds.len() as u32;
                }
                binds.push((i, b, shape));
                if let Some(r) = b.reverse() {
                    flags[base + r.0 as usize] |= REVERSE;
                }
            }
        }
        // One scan over the flattened wires classifies every endpoint:
        // reverse-port hits mark the port `WIRED` and feed the `peers`
        // table (the degradation and engagement rules key on them — only
        // reverse ports are ever queried, so only they earn entries), and
        // primary-port hits nominate the wire for a protocol check, with
        // its two binding slots resolved on the spot.
        let mut peers: Vec<(InstanceId, PortId, InstanceId)> = Vec::new();
        let mut candidates: Vec<(&Wire, u32, u32)> = Vec::new();
        for w in ctx.wires {
            let si = (off[w.src.inst.index()] + w.src.port.0) as usize;
            let di = (off[w.dst.inst.index()] + w.dst.port.0) as usize;
            if flags[si] & REVERSE != 0 {
                flags[si] |= WIRED;
                peers.push((w.src.inst, w.src.port, w.dst.inst));
            }
            if flags[di] & REVERSE != 0 {
                flags[di] |= WIRED;
                peers.push((w.dst.inst, w.dst.port, w.src.inst));
            }
            let (sb, db) = (bidx[si], bidx[di]);
            if sb != NO_BIND || db != NO_BIND {
                candidates.push((w, sb, db));
            }
        }
        peers.sort_unstable();
        peers.dedup();
        let ports = PortTable {
            off: &off,
            flags: &flags,
        };
        // Identical binding pairs compose identically: a verdict of
        // "clean" depends only on the two bindings' content and their
        // reverse-channel wiring, never on which instances carry them, so
        // one product walk covers every repetition of a library pairing.
        let mut clean: CleanCache = Vec::new();
        // Multi-lane buses flatten to one wire per lane; the protocol
        // relationship is per port pair, so dedupe — but only wires whose
        // endpoints hit a group's primary port ever reach a check, so
        // everything else skips the dedupe set too.
        let mut seen: FastSet<(InstanceId, PortId, InstanceId, PortId)> = FastSet::default();
        for (w, sb, db) in candidates {
            if !seen.insert((w.src.inst, w.src.port, w.dst.inst, w.dst.port)) {
                continue;
            }
            match (sb, db) {
                (NO_BIND, NO_BIND) => unreachable!(),
                (sb, NO_BIND) => {
                    let (owner, b, _) = binds[sb as usize];
                    let peer = netlist.instance(w.dst.inst);
                    check_engaged_peer(netlist, &peers, owner, b, peer, findings);
                }
                (NO_BIND, db) => {
                    let (owner, b, _) = binds[db as usize];
                    let peer = netlist.instance(w.src.inst);
                    check_engaged_peer(netlist, &peers, owner, b, peer, findings);
                }
                (sb, db) => {
                    let (src_inst, p, p_shape) = binds[sb as usize];
                    let (dst_inst, c, c_shape) = binds[db as usize];
                    check_pair(
                        netlist,
                        src_inst,
                        (p, p_shape),
                        dst_inst,
                        (c, c_shape),
                        &ports,
                        &mut clean,
                        findings,
                    );
                }
            }
        }
    }
}

/// Memo of binding-shape pairs (plus their reverse-wiring facts) already
/// proven compatible. Shapes are the `same_shape` equivalence classes
/// computed in the prologue, so entries compare as two integers; the
/// vector stays tiny because real designs reuse a handful of library
/// protocol pairings.
type CleanCache = Vec<(u32, u32, bool, bool)>;

/// Verdict-relevant equality between bindings: everything the composition
/// depends on (role, template, port layout, custom transitions) and
/// nothing it does not (group and state names, which are display-only;
/// spans, which are diagnostics-only).
fn same_shape(a: &ProtocolBinding, b: &ProtocolBinding) -> bool {
    a.role == b.role
        && a.automaton.template == b.automaton.template
        && a.ports == b.ports
        && a.automaton.states.len() == b.automaton.states.len()
        && a.automaton.transitions == b.automaton.transitions
}

fn span_of(b: &ProtocolBinding) -> Option<Span> {
    let s = b.span.known()?;
    Some(Span::new(FileId(s.file), s.start, s.end))
}

fn group_label(netlist: &Netlist, inst: &Instance, b: &ProtocolBinding) -> String {
    format!(
        "{}.{} (group `{}`: {} {})",
        inst.path,
        netlist.name(inst.ports[b.primary().0 as usize].name),
        b.group,
        b.role,
        b.automaton.template.describe()
    )
}

/// `LSS106`: one side annotated, and the annotated group's reverse port
/// wires back to the very same unannotated peer — the peer participates
/// in the protocol without declaring it.
fn check_engaged_peer(
    netlist: &Netlist,
    peers: &[(InstanceId, PortId, InstanceId)],
    owner: &Instance,
    b: &ProtocolBinding,
    peer: &Instance,
    findings: &mut Vec<Finding>,
) {
    let Some(rev) = b.reverse() else { return };
    // Reverse port wired back to this very peer?
    if peers.binary_search(&(owner.id, rev, peer.id)).is_err() {
        return;
    }
    let mut f = Finding::new(
        Code::ProtocolUnannotatedPeer,
        peer.path.clone(),
        format!(
            "exchanges both data and {} traffic with {} but declares no protocol",
            match &b.automaton.template {
                Template::ValidReady => "ready",
                Template::Credit(_) => "credit",
                Template::ReqResp => "response",
                Template::Custom(_) => "reverse-channel",
            },
            group_label(netlist, owner, b),
        ),
    )
    .with_note(format!(
        "declare a matching `protocol` group on module `{}` so the checker can verify the pair",
        netlist.name(peer.module)
    ));
    f.span = span_of(b);
    findings.push(f);
}

/// One expanded interface automaton: its `(from, dir, action, to)` edges,
/// sorted by source state, and the display names of its states (`None`:
/// a credit automaton, whose state `i` renders as "`i` in flight").
struct Autom<'a> {
    edges: Vec<(u32, ActionDir, &'a str, u32)>,
    names: Option<Vec<&'a str>>,
}

impl<'a> Autom<'a> {
    fn enabled(&self, s: u32) -> &[(u32, ActionDir, &'a str, u32)] {
        let lo = self.edges.partition_point(|e| e.0 < s);
        let hi = self.edges.partition_point(|e| e.0 <= s);
        &self.edges[lo..hi]
    }

    fn state_name(&self, s: u32) -> Cow<'a, str> {
        match &self.names {
            None => Cow::Owned(format!("{s} in flight")),
            Some(names) => Cow::Borrowed(names.get(s as usize).copied().unwrap_or("?")),
        }
    }
}

/// Expands a binding given the peer's template (for adaptive credit
/// resolution) and whether the reverse channel is physically wired.
fn expand<'a>(b: &'a ProtocolBinding, peer: &ProtocolBinding, has_reverse: bool) -> Autom<'a> {
    // The forward action (`valid`, `req`, `item`) leaves the producer;
    // the reverse one (`ready`, `resp`, `credit`) comes back.
    let (fwd, back) = match b.role {
        Role::Producer => (ActionDir::Send, ActionDir::Recv),
        Role::Consumer => (ActionDir::Recv, ActionDir::Send),
    };
    let handshake = |go, reply, waiting| Autom {
        edges: vec![(0, fwd, go, 1), (1, back, reply, 0)],
        names: Some(vec!["idle", waiting]),
    };
    // Credit automaton over `count` credits; state = items in flight.
    let credit = |count: u32, returns_credits: bool| {
        let mut edges = Vec::new();
        for i in 0..=count {
            if i < count {
                edges.push((i, fwd, "item", i + 1));
            }
            if returns_credits && i > 0 {
                edges.push((i, back, "credit", i - 1));
            }
        }
        Autom { edges, names: None }
    };
    match &b.automaton.template {
        Template::ValidReady => handshake("valid", "ready", "awaiting ready"),
        Template::ReqResp => handshake("req", "resp", "awaiting resp"),
        // §4.2 degradation: no credit return path. Adaptive groups become
        // an unbounded stream; a concrete producer becomes a finite one
        // (it can send its declared budget, then stops).
        Template::Credit(declared) if !has_reverse => match (b.role, declared) {
            (Role::Producer, Some(n)) => credit(*n, false),
            _ => Autom {
                edges: vec![(0, fwd, "item", 0)],
                names: Some(vec!["idle"]),
            },
        },
        Template::Credit(declared) => {
            // Adaptive: take the peer's concrete count, else 1.
            let count = declared.unwrap_or(match &peer.automaton.template {
                Template::Credit(Some(m)) => *m,
                _ => 1,
            });
            credit(count.max(1), true)
        }
        Template::Custom(_) => {
            let a = &b.automaton;
            let mut edges: Vec<_> = a
                .transitions
                .iter()
                .map(|t| (t.from, t.dir, t.action.as_str(), t.to))
                .collect();
            edges.sort_by_key(|e| e.0);
            let names = if a.states.is_empty() {
                vec!["start"]
            } else {
                a.states.iter().map(String::as_str).collect()
            };
            Autom {
                edges,
                names: Some(names),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_pair(
    netlist: &Netlist,
    src_inst: &Instance,
    (p, p_shape): (&ProtocolBinding, u32),
    dst_inst: &Instance,
    (c, c_shape): (&ProtocolBinding, u32),
    ports: &PortTable<'_>,
    clean: &mut CleanCache,
    findings: &mut Vec<Finding>,
) {
    // Every branch below depends only on the two bindings' content and on
    // whether each side's reverse channel is wired — never on which
    // instances carry them — so a pairing already proven clean under the
    // same wiring facts needs no second product walk.
    let p_rev = p.reverse().is_some_and(|rp| ports.wired(src_inst.id, rp));
    let c_rev = c.reverse().is_some_and(|rp| ports.wired(dst_inst.id, rp));
    if clean.contains(&(p_shape, c_shape, p_rev, c_rev)) {
        return;
    }

    // Label and subject strings only materialize when a finding fires;
    // the clean path through this function allocates nothing for them.
    let p_label = || group_label(netlist, src_inst, p);
    let c_label = || group_label(netlist, dst_inst, c);
    let subject = || {
        format!(
            "{}.{}",
            src_inst.path,
            netlist.name(src_inst.ports[p.primary().0 as usize].name)
        )
    };

    // Role orientation: the wire's source must be the producer side.
    if p.role != Role::Producer || c.role != Role::Consumer {
        let (inst, b, expected) = if p.role != Role::Producer {
            (src_inst, p, "producer")
        } else {
            (dst_inst, c, "consumer")
        };
        let mut f = Finding::new(
            Code::ProtocolMismatch,
            subject(),
            format!(
                "connection {} -> {} binds group `{}` on `{}` as {} where the data flow \
                 requires a {expected}",
                p_label(),
                c_label(),
                b.group,
                inst.path,
                b.role
            ),
        )
        .with_note(format!(
            "swap the role to `{expected}` or reverse the connection"
        ));
        f.span = span_of(b);
        findings.push(f);
        return;
    }

    // Concrete credit over-issue: declared budgets already decide it.
    if let (Template::Credit(Some(n)), Template::Credit(Some(m))) =
        (&p.automaton.template, &c.automaton.template)
    {
        if n > m {
            let mut f = Finding::new(
                Code::ProtocolMismatch,
                subject(),
                format!(
                    "{} may issue {n} item(s) against {}, which only buffers {m}",
                    p_label(),
                    c_label()
                ),
            )
            .with_note(format!(
                "lower the producer's credit count to at most {m}, or deepen the consumer"
            ));
            f.span = span_of(p);
            findings.push(f);
            return;
        }
    }

    // Credit-to-credit pairs are fully decided by the direct checks
    // above, so the product walk below cannot fire: role orientation
    // guarantees the producer sends and the consumer receives the same
    // `item`/`credit` vocabulary, over-issue has already rejected any
    // producer budget beyond the consumer's, adaptivity only ever copies
    // the peer's (already admissible) count, and §4.2 degradation strips
    // the return channel from *both* sides together, leaving a finite or
    // unbounded stream against an unbounded sink. Every reachable product
    // state therefore has a joint move or is quiescent. Skipping the walk
    // keeps wide credit windows (N states apiece) off the per-compile
    // budget; `credit_sweep_agrees_with_product_walk` pins the claim.
    if matches!(p.automaton.template, Template::Credit(_))
        && matches!(c.automaton.template, Template::Credit(_))
    {
        clean.push((p_shape, c_shape, p_rev, c_rev));
        return;
    }

    // Handshake templates require their reverse channel: a declared but
    // unwired ready/resp port stalls the pair after the first transfer.
    for (inst, b) in [(src_inst, p), (dst_inst, c)] {
        if matches!(
            b.automaton.template,
            Template::ValidReady | Template::ReqResp
        ) {
            if let Some(rev) = b.reverse() {
                if !ports.wired(inst.id, rev) {
                    let rev_name = netlist.name(inst.ports[rev.0 as usize].name);
                    let mut f = Finding::new(
                        Code::ProtocolDeadlock,
                        format!("{}.{rev_name}", inst.path),
                        format!(
                            "{} declares reverse port `{rev_name}` but it is not \
                             connected; the handshake stalls after the first transfer",
                            group_label(netlist, inst, b)
                        ),
                    )
                    .with_note("wire the reverse channel or drop the handshake annotation");
                    f.span = span_of(b);
                    findings.push(f);
                    return;
                }
            }
        }
    }

    // The credit return channel needs both ends; treat it as present only
    // when each side that declares a reverse port also has it wired.
    let credit_channel = match (p.reverse(), c.reverse()) {
        (Some(_), Some(_)) => p_rev && c_rev,
        (Some(_), None) => p_rev,
        (None, Some(_)) => c_rev,
        (None, None) => false,
    };
    let pa = expand(
        p,
        c,
        credit_channel || !matches!(p.automaton.template, Template::Credit(_)),
    );
    let ca = expand(
        c,
        p,
        credit_channel || !matches!(c.automaton.template, Template::Credit(_)),
    );

    // Breadth-first reachability over the product from (0, 0); a walk
    // that outgrows the state bound gives up silently rather than guess.
    let mut visited: FastSet<(u32, u32)> = FastSet::default();
    visited.insert((0, 0));
    let mut queue = VecDeque::from([(0, 0)]);
    while let Some((ps, cs)) = queue.pop_front() {
        if visited.len() > MAX_PRODUCT_STATES {
            return;
        }
        let p_enabled = pa.enabled(ps);
        let c_enabled = ca.enabled(cs);
        let mut moved = false;
        for pt in p_enabled {
            for ct in c_enabled {
                // A joint move: same action, one side sends, the other receives.
                if pt.2 == ct.2 && pt.1 != ct.1 {
                    moved = true;
                    if visited.insert((pt.3, ct.3)) {
                        queue.push_back((pt.3, ct.3));
                    }
                }
            }
        }
        if moved {
            continue;
        }
        // No joint move from this reachable state: classify it.
        let unmatched_send = p_enabled
            .iter()
            .find(|t| t.1 == ActionDir::Send)
            .map(|t| (true, t.2))
            .or_else(|| {
                c_enabled
                    .iter()
                    .find(|t| t.1 == ActionDir::Send)
                    .map(|t| (false, t.2))
            });
        if let Some((from_producer, action)) = unmatched_send {
            let (sender, receiver, s_state, r_state) = if from_producer {
                (p_label(), c_label(), pa.state_name(ps), ca.state_name(cs))
            } else {
                (c_label(), p_label(), ca.state_name(cs), pa.state_name(ps))
            };
            let mut f = Finding::new(
                Code::ProtocolMismatch,
                subject(),
                format!(
                    "{sender} can send `{action}` (state `{s_state}`) that {receiver} \
                     cannot accept (state `{r_state}`)"
                ),
            )
            .with_note("the templates' action vocabularies or capacities do not compose");
            f.span = span_of(p).or_else(|| span_of(c));
            findings.push(f);
            return;
        }
        if !p_enabled.is_empty() && !c_enabled.is_empty() {
            // Both sides wait on a receive forever.
            let mut f = Finding::new(
                Code::ProtocolDeadlock,
                subject(),
                format!(
                    "{} (state `{}`) and {} (state `{}`) each wait for the \
                     other; no transfer can ever happen",
                    p_label(),
                    pa.state_name(ps),
                    c_label(),
                    ca.state_name(cs)
                ),
            )
            .with_note("make one side's initial state able to send, or fix the reverse wiring");
            f.span = span_of(p).or_else(|| span_of(c));
            findings.push(f);
            return;
        }
        // One or both sides terminated; the other may idle — quiescent.
    }
    clean.push((p_shape, c_shape, p_rev, c_rev));
}
