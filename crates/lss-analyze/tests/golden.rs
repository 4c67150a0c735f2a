//! Golden-file diagnostic tests: handcrafted netlists with known defects
//! must render to byte-identical reports, and every Table 3 model must
//! come out clean under the default deny set.
//!
//! Regenerate the expected files with `UPDATE_GOLDEN=1 cargo test -p
//! lss-analyze --test golden` after an intentional output change, and
//! review the diff like any other code change.

use std::collections::BTreeMap;
use std::path::PathBuf;

use lss_analyze::passes::protocol::ProtocolPass;
use lss_analyze::{to_text, AnalysisConfig, CombInfo, Pass, PassManager};
use lss_netlist::{
    ActionDir, Automaton, Connection, Dir, Endpoint, Instance, InstanceId, InstanceKind, Netlist,
    Port, PortId, ProtocolBinding, Role, SrcSpan, Template, Transition,
};
use lss_types::Scheme;

/// Adds a leaf instance with the given `(name, dir, width)` ports.
/// Mirrors `lss_netlist::netlist::testutil::add`, which is `cfg(test)`.
fn add_leaf(n: &mut Netlist, path: &str, module: &str, ports: &[(&str, Dir, u32)]) -> InstanceId {
    let module_sym = n.intern(module);
    let tar_file = format!("corelib/{module}.tar");
    let ports = ports
        .iter()
        .map(|(name, dir, width)| {
            let name_sym = n.intern(name);
            let var = n.vars.fresh(format!("{path}.{name}"));
            Port {
                name: name_sym,
                dir: *dir,
                scheme: Scheme::Var(var),
                var,
                width: *width,
                ty: None,
                explicit: false,
            }
        })
        .collect();
    n.add_instance(Instance {
        id: InstanceId(0),
        path: path.to_string(),
        module: module_sym,
        kind: InstanceKind::Leaf { tar_file },
        parent: None,
        from_library: true,
        params: BTreeMap::new(),
        ports,
        userpoints: Vec::new(),
        runtime_vars: Vec::new(),
        events: Vec::new(),
        protocols: Vec::new(),
    })
}

/// Endpoint shorthand.
fn ep(inst: InstanceId, port: u32, index: u32) -> Endpoint {
    Endpoint {
        inst,
        port: PortId(port),
        index,
    }
}

fn connect(n: &mut Netlist, src: Endpoint, dst: Endpoint) {
    n.connections.push(Connection { src, dst });
}

/// Runs the default pass suite and renders the human report.
fn report(netlist: &Netlist, comb: &CombInfo) -> String {
    let analysis =
        PassManager::with_default_passes().run(netlist, comb, &AnalysisConfig::default());
    to_text(&analysis.findings)
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "report differs from {}; run with UPDATE_GOLDEN=1 to regenerate",
        path.display()
    );
}

/// Two combinational pass-throughs wired head-to-tail: a true zero-delay
/// cycle, plus the dead-logic warnings (nothing observes the loop).
fn cyclic_netlist() -> Netlist {
    let mut n = Netlist::new();
    let a = add_leaf(
        &mut n,
        "a",
        "tee",
        &[("in", Dir::In, 1), ("out", Dir::Out, 1)],
    );
    let b = add_leaf(
        &mut n,
        "b",
        "tee",
        &[("in", Dir::In, 1), ("out", Dir::Out, 1)],
    );
    connect(&mut n, ep(a, 1, 0), ep(b, 0, 0));
    connect(&mut n, ep(b, 1, 0), ep(a, 0, 0));
    n
}

#[test]
fn cyclic_netlist_reports_lss101() {
    let n = cyclic_netlist();
    assert_golden("cyclic.txt", &report(&n, &CombInfo::all_combinational()));
}

#[test]
fn registering_an_input_breaks_the_cycle() {
    let n = cyclic_netlist();
    let b = n.instances[1].id;
    let mut comb = CombInfo::all_combinational();
    comb.set_non_combinational(b, PortId(0));
    let analysis = PassManager::with_default_passes().run(&n, &comb, &AnalysisConfig::default());
    assert_eq!(analysis.with_code(lss_analyze::Code::CombCycle).count(), 0);
    assert_eq!(analysis.denied, 0);
}

#[test]
fn independent_port_paths_break_the_cycle() {
    // Same wiring, but b's behavior declares `out` independent of `in`
    // (a credit-style component): the loop dissolves at port granularity.
    let n = cyclic_netlist();
    let b = n.instances[1].id;
    let mut comb = CombInfo::all_combinational();
    comb.set_independent(b, PortId(1), PortId(0));
    let analysis = PassManager::with_default_passes().run(&n, &comb, &AnalysisConfig::default());
    assert_eq!(analysis.with_code(lss_analyze::Code::CombCycle).count(), 0);
}

#[test]
fn multi_driver_netlist_reports_lss102() {
    let mut n = Netlist::new();
    let s1 = add_leaf(&mut n, "s1", "source", &[("out", Dir::Out, 1)]);
    let s2 = add_leaf(&mut n, "s2", "source", &[("out", Dir::Out, 1)]);
    let k = add_leaf(&mut n, "k", "sink", &[("in", Dir::In, 1)]);
    connect(&mut n, ep(s1, 0, 0), ep(k, 0, 0));
    connect(&mut n, ep(s2, 0, 0), ep(k, 0, 0));
    assert_golden(
        "multidriver.txt",
        &report(&n, &CombInfo::all_combinational()),
    );
}

#[test]
fn dead_logic_netlist_reports_lss203() {
    let mut n = Netlist::new();
    // Observed chain: gen -> hole (hole has no outputs, so it counts as an
    // observation point).
    let gen = add_leaf(&mut n, "gen", "source", &[("out", Dir::Out, 1)]);
    let hole = add_leaf(&mut n, "hole", "sink", &[("in", Dir::In, 1)]);
    connect(&mut n, ep(gen, 0, 0), ep(hole, 0, 0));
    // Dead chain: gen2 -> stage, whose output goes nowhere.
    let gen2 = add_leaf(&mut n, "gen2", "source", &[("out", Dir::Out, 1)]);
    let stage = add_leaf(
        &mut n,
        "stage",
        "tee",
        &[("in", Dir::In, 1), ("out", Dir::Out, 0)],
    );
    connect(&mut n, ep(gen2, 0, 0), ep(stage, 0, 0));
    assert_golden("deadlogic.txt", &report(&n, &CombInfo::all_combinational()));
}

/// Attaches a template-based protocol binding to an instance.
fn annotate(
    n: &mut Netlist,
    inst: InstanceId,
    group: &str,
    role: Role,
    template: Template,
    ports: &[u32],
) {
    n.instances[inst.0 as usize]
        .protocols
        .push(ProtocolBinding {
            group: group.to_string(),
            role,
            automaton: Automaton {
                template,
                states: Vec::new(),
                transitions: Vec::new(),
            },
            ports: ports.iter().map(|&p| PortId(p)).collect(),
            span: SrcSpan::default(),
        });
}

fn analyze(n: &Netlist) -> lss_analyze::Analysis {
    PassManager::with_default_passes().run(
        n,
        &CombInfo::all_combinational(),
        &AnalysisConfig::default(),
    )
}

/// fetch-like producer (out, credit_in) into a queue-like consumer
/// (in, credit) with the credit channel wired back.
fn credit_pair(n: &mut Netlist) -> (InstanceId, InstanceId) {
    let f = add_leaf(
        n,
        "f",
        "fetch",
        &[("out", Dir::Out, 8), ("credit_in", Dir::In, 1)],
    );
    let q = add_leaf(
        n,
        "q",
        "queue",
        &[
            ("in", Dir::In, 8),
            ("out", Dir::Out, 8),
            ("credit", Dir::Out, 1),
            ("credit_in", Dir::In, 1),
        ],
    );
    connect(n, ep(f, 0, 0), ep(q, 0, 0));
    connect(n, ep(q, 2, 0), ep(f, 1, 0));
    (f, q)
}

#[test]
fn matched_credit_pair_is_protocol_clean() {
    let mut n = Netlist::new();
    let (f, q) = credit_pair(&mut n);
    annotate(
        &mut n,
        f,
        "outs",
        Role::Producer,
        Template::Credit(None),
        &[0, 1],
    );
    annotate(
        &mut n,
        q,
        "ins",
        Role::Consumer,
        Template::Credit(Some(4)),
        &[0, 2],
    );
    let analysis = analyze(&n);
    for code in [
        lss_analyze::Code::ProtocolMismatch,
        lss_analyze::Code::ProtocolUnannotatedPeer,
        lss_analyze::Code::ProtocolDeadlock,
    ] {
        assert_eq!(
            analysis.with_code(code).count(),
            0,
            "unexpected {code} in:\n{}",
            to_text(&analysis.findings)
        );
    }
}

/// Both sides claim to consume: the wire's source cannot be a consumer.
fn role_flip_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (f, q) = credit_pair(&mut n);
    annotate(
        &mut n,
        f,
        "outs",
        Role::Consumer,
        Template::Credit(None),
        &[0, 1],
    );
    annotate(
        &mut n,
        q,
        "ins",
        Role::Consumer,
        Template::Credit(Some(4)),
        &[0, 2],
    );
    n
}

#[test]
fn role_flip_reports_lss105() {
    let analysis = analyze(&role_flip_netlist());
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolMismatch)
        .next()
        .expect("role flip must be a protocol mismatch");
    assert!(f.message.contains("requires a producer"), "{}", f.message);
}

/// A `credit(8)` producer into a `credit(4)` consumer.
fn over_issue_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (f, q) = credit_pair(&mut n);
    annotate(
        &mut n,
        f,
        "outs",
        Role::Producer,
        Template::Credit(Some(8)),
        &[0, 1],
    );
    annotate(
        &mut n,
        q,
        "ins",
        Role::Consumer,
        Template::Credit(Some(4)),
        &[0, 2],
    );
    n
}

#[test]
fn credit_over_issue_reports_lss105() {
    let analysis = analyze(&over_issue_netlist());
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolMismatch)
        .next()
        .expect("credit over-issue must be a protocol mismatch");
    assert!(f.message.contains("only buffers 4"), "{}", f.message);
}

/// A custom-automaton binding over `ports`; each transition is
/// `(from, dir, action, to)`.
fn custom(
    group: &str,
    role: Role,
    name: &str,
    states: &[&str],
    transitions: &[(u32, ActionDir, &str, u32)],
    ports: &[u32],
) -> ProtocolBinding {
    ProtocolBinding {
        group: group.to_string(),
        role,
        automaton: Automaton {
            template: Template::Custom(name.to_string()),
            states: states.iter().map(|s| s.to_string()).collect(),
            transitions: transitions
                .iter()
                .map(|&(from, dir, action, to)| Transition {
                    from,
                    to,
                    dir,
                    action: action.to_string(),
                })
                .collect(),
        },
        ports: ports.iter().map(|&p| PortId(p)).collect(),
        span: SrcSpan::default(),
    }
}

/// Producer that must *receive* `go` before it ever sends, wired to a
/// consumer that only sends `go` *after* receiving an item.
fn wait_loop_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (f, q) = credit_pair(&mut n);
    n.instances[f.0 as usize].protocols.push(custom(
        "outs",
        Role::Producer,
        "polite",
        &["p0", "p1"],
        &[
            (0, ActionDir::Recv, "go", 1),
            (1, ActionDir::Send, "item", 0),
        ],
        &[0, 1],
    ));
    n.instances[q.0 as usize].protocols.push(custom(
        "ins",
        Role::Consumer,
        "shy",
        &["c0", "c1"],
        &[
            (0, ActionDir::Recv, "item", 1),
            (1, ActionDir::Send, "go", 0),
        ],
        &[0, 2],
    ));
    n
}

#[test]
fn custom_wait_loop_reports_lss107() {
    let analysis = analyze(&wait_loop_netlist());
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolDeadlock)
        .next()
        .expect("mutual wait must be a protocol deadlock");
    assert!(f.message.contains("wait for the other"), "{}", f.message);
}

/// Only the queue declares its discipline; fetch still wires the credit
/// return path, so it demonstrably participates.
fn engaged_peer_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (_, q) = credit_pair(&mut n);
    annotate(
        &mut n,
        q,
        "ins",
        Role::Consumer,
        Template::Credit(Some(4)),
        &[0, 2],
    );
    n
}

#[test]
fn engaged_unannotated_peer_reports_lss106() {
    let analysis = analyze(&engaged_peer_netlist());
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolUnannotatedPeer)
        .next()
        .expect("engaged peer must warn");
    assert_eq!(f.subject, "f");
    assert!(f.message.contains("credit traffic"), "{}", f.message);
}

#[test]
fn unengaged_peer_stays_silent() {
    let mut n = Netlist::new();
    let s = add_leaf(&mut n, "s", "source", &[("out", Dir::Out, 8)]);
    let q = add_leaf(
        &mut n,
        "q",
        "queue",
        &[
            ("in", Dir::In, 8),
            ("out", Dir::Out, 8),
            ("credit", Dir::Out, 1),
            ("credit_in", Dir::In, 1),
        ],
    );
    connect(&mut n, ep(s, 0, 0), ep(q, 0, 0));
    // Credit return is unwired: the source does not participate in the
    // discipline, so no warning (§4.2 degradation).
    annotate(
        &mut n,
        q,
        "ins",
        Role::Consumer,
        Template::Credit(Some(4)),
        &[0, 2],
    );
    let analysis = analyze(&n);
    assert_eq!(
        analysis
            .with_code(lss_analyze::Code::ProtocolUnannotatedPeer)
            .count(),
        0
    );
    assert_eq!(
        analysis
            .with_code(lss_analyze::Code::ProtocolDeadlock)
            .count(),
        0
    );
}

/// Pins the analyzer's credit-to-credit fast path: after the direct role
/// and over-issue checks, every credit pairing composes cleanly — the
/// only finding a credit/credit pair can produce is a concrete producer
/// budget exceeding a concrete consumer budget. Sweeps adaptive and
/// concrete counts on both sides, with the return channel wired and
/// unwired (§4.2 degradation).
#[test]
fn credit_sweep_agrees_with_product_walk() {
    let counts: [Option<u32>; 4] = [None, Some(1), Some(4), Some(9)];
    for p_count in counts {
        for c_count in counts {
            for wired in [true, false] {
                let mut n = Netlist::new();
                let (f, q) = credit_pair(&mut n);
                if !wired {
                    // Drop the credit return connection (q.credit -> f.credit_in).
                    n.connections
                        .retain(|c| c.src.inst != q || c.src.port != PortId(2));
                }
                annotate(
                    &mut n,
                    f,
                    "outs",
                    Role::Producer,
                    Template::Credit(p_count),
                    &[0, 1],
                );
                annotate(
                    &mut n,
                    q,
                    "ins",
                    Role::Consumer,
                    Template::Credit(c_count),
                    &[0, 2],
                );
                let analysis = analyze(&n);
                let over_issue = matches!((p_count, c_count), (Some(p), Some(c)) if p > c);
                let mismatches = analysis
                    .with_code(lss_analyze::Code::ProtocolMismatch)
                    .count();
                let deadlocks = analysis
                    .with_code(lss_analyze::Code::ProtocolDeadlock)
                    .count();
                assert_eq!(
                    (mismatches, deadlocks),
                    (usize::from(over_issue), 0),
                    "credit({p_count:?}) -> credit({c_count:?}), wired={wired}:\n{}",
                    to_text(&analysis.findings)
                );
            }
        }
    }
}

/// A `req_resp` pair whose request path is wired and whose response
/// path is forgotten.
fn dangling_handshake_netlist() -> Netlist {
    let mut n = Netlist::new();
    let fu = add_leaf(
        &mut n,
        "fu",
        "fu",
        &[("mem_req", Dir::Out, 8), ("mem_resp", Dir::In, 8)],
    );
    let c = add_leaf(
        &mut n,
        "c",
        "cache",
        &[("req", Dir::In, 8), ("resp", Dir::Out, 8)],
    );
    connect(&mut n, ep(fu, 0, 0), ep(c, 0, 0));
    annotate(
        &mut n,
        fu,
        "mem",
        Role::Producer,
        Template::ReqResp,
        &[0, 1],
    );
    annotate(
        &mut n,
        c,
        "upper",
        Role::Consumer,
        Template::ReqResp,
        &[0, 1],
    );
    n
}

#[test]
fn dangling_handshake_reverse_reports_lss107() {
    let analysis = analyze(&dangling_handshake_netlist());
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolDeadlock)
        .next()
        .expect("dangling resp must deadlock");
    assert!(f.message.contains("not connected"), "{}", f.message);
}

/// A producer leaf `p` (`out`, `back`) wired to a consumer leaf `c` (`in`,
/// `ret`), with the reverse channel `c.ret -> p.back` wired too.
fn handshake_pair(n: &mut Netlist) -> (InstanceId, InstanceId) {
    let p = add_leaf(
        n,
        "p",
        "prod",
        &[("out", Dir::Out, 8), ("back", Dir::In, 1)],
    );
    let c = add_leaf(n, "c", "cons", &[("in", Dir::In, 8), ("ret", Dir::Out, 1)]);
    connect(n, ep(p, 0, 0), ep(c, 0, 0));
    connect(n, ep(c, 1, 0), ep(p, 1, 0));
    (p, c)
}

/// A `valid_ready` producer into a `credit` consumer: the walk's first
/// state already strands `valid` (states `idle` and `0 in flight`).
fn valid_into_credit_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (p, c) = handshake_pair(&mut n);
    annotate(
        &mut n,
        p,
        "outs",
        Role::Producer,
        Template::ValidReady,
        &[0, 1],
    );
    annotate(
        &mut n,
        c,
        "ins",
        Role::Consumer,
        Template::Credit(Some(2)),
        &[0, 1],
    );
    n
}

/// A `credit(2)` producer against a custom consumer that takes two items
/// and then sends `drain` (state `2 in flight`).
fn credit_into_drain_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (p, c) = handshake_pair(&mut n);
    annotate(
        &mut n,
        p,
        "outs",
        Role::Producer,
        Template::Credit(Some(2)),
        &[0, 1],
    );
    n.instances[c.0 as usize].protocols.push(custom(
        "ins",
        Role::Consumer,
        "drainer",
        &["c0", "c1", "c2"],
        &[
            (0, ActionDir::Recv, "item", 1),
            (1, ActionDir::Recv, "item", 2),
            (2, ActionDir::Send, "drain", 0),
        ],
        &[0, 1],
    ));
    n
}

/// A `req_resp` requester against a custom server that answers `ack`
/// instead of `resp` (state `awaiting resp`).
fn req_into_ack_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (p, c) = handshake_pair(&mut n);
    annotate(&mut n, p, "mem", Role::Producer, Template::ReqResp, &[0, 1]);
    n.instances[c.0 as usize].protocols.push(custom(
        "upper",
        Role::Consumer,
        "acker",
        &["c0", "c1"],
        &[
            (0, ActionDir::Recv, "req", 1),
            (1, ActionDir::Send, "ack", 0),
        ],
        &[0, 1],
    ));
    n
}

/// A custom producer whose transition leads past its declared state
/// names (rendered `?`), where it sends an action the consumer lacks.
fn past_names_netlist() -> Netlist {
    let mut n = Netlist::new();
    let (p, c) = handshake_pair(&mut n);
    n.instances[p.0 as usize].protocols.push(custom(
        "outs",
        Role::Producer,
        "runaway",
        &["s0"],
        &[
            (0, ActionDir::Send, "item", 1),
            (1, ActionDir::Send, "junk", 1),
        ],
        &[0],
    ));
    n.instances[c.0 as usize].protocols.push(custom(
        "ins",
        Role::Consumer,
        "eater",
        &["c0"],
        &[(0, ActionDir::Recv, "item", 0)],
        &[0],
    ));
    n
}

/// Pins the exact text of every protocol finding shape: the walk's
/// mismatches (all four kinds of state name) and deadlock, and the direct
/// role, over-issue, dangling-handshake and unannotated-peer checks.
#[test]
fn protocol_messages_match_golden() {
    let cases = [
        (
            "walk mismatch: valid_ready into credit",
            valid_into_credit_netlist(),
        ),
        (
            "walk mismatch: credit into a custom drainer",
            credit_into_drain_netlist(),
        ),
        (
            "walk mismatch: req_resp into a custom acker",
            req_into_ack_netlist(),
        ),
        ("walk mismatch: state past the names", past_names_netlist()),
        ("walk deadlock: custom wait loop", wait_loop_netlist()),
        ("role flip", role_flip_netlist()),
        ("credit over-issue", over_issue_netlist()),
        ("dangling handshake", dangling_handshake_netlist()),
        ("engaged unannotated peer", engaged_peer_netlist()),
    ];
    let mut out = String::new();
    for (name, n) in cases {
        let findings: Vec<_> = analyze(&n)
            .findings
            .into_iter()
            .filter(|f| ProtocolPass.codes().contains(&f.code))
            .collect();
        assert!(!findings.is_empty(), "{name}: no protocol finding");
        out.push_str(&format!("== {name}\n{}", to_text(&findings)));
    }
    assert_golden("protocol.txt", &out);
}

/// The product walk gives up silently past `MAX_PRODUCT_STATES` (4,096)
/// states. A producer cycling through `p_len` states (`send a`, but only
/// `send z` in its last) against a consumer cycling through `c_len`
/// states (`recv a` or `recv z`, but only `recv a` in its last) advance in
/// lockstep, so the one stuck state `(p_len - 1, c_len - 1)` is first
/// reached at step `lcm(p_len, c_len) - 1`.
fn lockstep_netlist(p_len: u32, c_len: u32) -> Netlist {
    let mut n = Netlist::new();
    let (p, c) = handshake_pair(&mut n);
    let mut sends: Vec<(u32, ActionDir, &str, u32)> = (0..p_len - 1)
        .map(|s| (s, ActionDir::Send, "a", s + 1))
        .collect();
    sends.push((p_len - 1, ActionDir::Send, "z", 0));
    let mut recvs: Vec<(u32, ActionDir, &str, u32)> = Vec::new();
    for s in 0..c_len - 1 {
        recvs.push((s, ActionDir::Recv, "a", s + 1));
        recvs.push((s, ActionDir::Recv, "z", s + 1));
    }
    recvs.push((c_len - 1, ActionDir::Recv, "a", 0));
    let p_states: Vec<String> = (0..p_len).map(|s| format!("p{s}")).collect();
    let c_states: Vec<String> = (0..c_len).map(|s| format!("c{s}")).collect();
    let p_names: Vec<&str> = p_states.iter().map(String::as_str).collect();
    let c_names: Vec<&str> = c_states.iter().map(String::as_str).collect();
    n.instances[p.0 as usize].protocols.push(custom(
        "outs",
        Role::Producer,
        "ring",
        &p_names,
        &sends,
        &[0],
    ));
    n.instances[c.0 as usize].protocols.push(custom(
        "ins",
        Role::Consumer,
        "ring",
        &c_names,
        &recvs,
        &[0],
    ));
    n
}

#[test]
fn product_walk_stops_silently_past_its_state_bound() {
    // 67 x 71: the stuck state (66, 70) is first reached at step 4,756.
    let analysis = analyze(&lockstep_netlist(67, 71));
    assert!(
        !analysis
            .findings
            .iter()
            .any(|f| ProtocolPass.codes().contains(&f.code)),
        "{}",
        to_text(&analysis.findings)
    );
    // Control: 3 x 5 reaches its stuck state at step 14 and reports it.
    let analysis = analyze(&lockstep_netlist(3, 5));
    let f = analysis
        .with_code(lss_analyze::Code::ProtocolMismatch)
        .next()
        .expect("a reachable stuck state within the bound is reported");
    assert!(
        f.message.contains("can send `z` (state `p2`)"),
        "{}",
        f.message
    );
    assert!(f.message.contains("(state `c4`)"), "{}", f.message);
}

#[test]
fn table3_models_are_clean_under_default_deny() {
    let registry = lss_corelib::registry();
    for model in lss_models::models() {
        let compiled = lss_models::compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let comb = lss_sim::comb_info(&compiled.netlist, &registry);
        let analysis = PassManager::with_default_passes().run(
            &compiled.netlist,
            &comb,
            &AnalysisConfig::default(),
        );
        assert_eq!(
            analysis.denied,
            0,
            "model {} is not clean under the default deny set:\n{}",
            model.id,
            to_text(&analysis.findings)
        );
        assert_eq!(
            analysis.with_code(lss_analyze::Code::CombCycle).count(),
            0,
            "model {} has a port-level combinational cycle",
            model.id
        );
    }
}
