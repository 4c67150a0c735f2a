//! Port-protocol contracts carried on elaborated instances.
//!
//! A [`ProtocolBinding`] attaches a small interface automaton to a named
//! group of ports on one instance: the first port is the group's *primary*
//! (data) channel and any further ports form the *reverse* channel (credit
//! return / ready). Bindings are produced by elaborating `protocol`
//! annotations (see `lss-interp`), survive the netlist JSON format, and are
//! consumed by the `lss-analyze` composition checker and the `lss-sim`
//! runtime monitor.
//!
//! The types here are intentionally string-based (no [`crate::intern`]
//! coupling): bindings are sparse — a handful per annotated instance — and
//! are read at boundaries (diagnostics, JSON) where strings are needed
//! anyway.

use std::fmt;

use crate::intern::PortId;

/// Which side of a connection a binding describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The group drives data into the connection.
    Producer,
    /// The group accepts data from the connection.
    Consumer,
}

impl Role {
    /// Lowercase keyword form (`producer` / `consumer`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Producer => "producer",
            Role::Consumer => "consumer",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the declaring side sends or receives a transition's action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionDir {
    /// The declaring side emits the action (`send` / `!`).
    Send,
    /// The declaring side consumes the action (`recv` / `?`).
    Recv,
}

impl ActionDir {
    /// The `!` / `?` prefix used in diagnostics.
    pub fn sigil(self) -> char {
        match self {
            ActionDir::Send => '!',
            ActionDir::Recv => '?',
        }
    }
}

/// One transition of an explicit automaton. States are indices into
/// [`Automaton::states`]; state 0 is initial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source state index.
    pub from: u32,
    /// Destination state index.
    pub to: u32,
    /// Send or receive.
    pub dir: ActionDir,
    /// The named action carried on the channel.
    pub action: String,
}

/// The protocol template a binding was declared with.
///
/// Built-in templates expand to fixed automata over a canonical action
/// vocabulary (`item`/`credit` for credit flow control, `valid`/`ready`
/// for handshakes, `req`/`resp` for request-response); `Custom` names a
/// user-declared `protocol { .. }` automaton whose states and transitions
/// are stored verbatim in the owning [`Automaton`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Template {
    /// One item per ready handshake (`valid`/`ready` actions).
    ValidReady,
    /// Credit-based flow control: `None` is adaptive (the credit count is
    /// taken from the peer, or unbounded when the reverse channel is
    /// unwired), `Some(n)` declares a concrete count.
    Credit(Option<u32>),
    /// Strictly alternating request/response (`req`/`resp` actions).
    ReqResp,
    /// A named user-declared automaton.
    Custom(String),
}

impl Template {
    /// Human-readable template name for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Template::ValidReady => "valid_ready".into(),
            Template::Credit(None) => "credit".into(),
            Template::Credit(Some(n)) => format!("credit({n})"),
            Template::ReqResp => "req_resp".into(),
            Template::Custom(name) => name.clone(),
        }
    }
}

/// A dependency-free source span mirror (`lss-netlist` does not depend on
/// `lss-ast`): file id plus byte offsets, exactly the fields of
/// `lss_ast::Span`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcSpan {
    /// File id in the driver's source map.
    pub file: u32,
    /// Starting byte offset.
    pub start: u32,
    /// Ending byte offset (exclusive).
    pub end: u32,
}

impl SrcSpan {
    /// The span, or `None` when it is unknown (`file` `u32::MAX`, or all
    /// zero as in a hand-built netlist).
    pub fn known(self) -> Option<SrcSpan> {
        (self.file != u32::MAX && (self.file, self.start, self.end) != (0, 0, 0)).then_some(self)
    }
}

/// An explicit automaton: named states (index 0 initial) plus transitions.
/// Built-in templates leave `states` empty — their automata are expanded on
/// demand by the analyzer from [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automaton {
    /// The declared template.
    pub template: Template,
    /// State names for `Custom` automata (first is initial); empty for
    /// built-in templates.
    pub states: Vec<String>,
    /// Transitions for `Custom` automata; empty for built-in templates.
    pub transitions: Vec<Transition>,
}

/// One protocol annotation bound to an instance's port group.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolBinding {
    /// Group name — the diagnostic label, unique per instance.
    pub group: String,
    /// Producer or consumer.
    pub role: Role,
    /// The declared automaton (template or custom).
    pub automaton: Automaton,
    /// Annotated ports on the owning instance; `ports[0]` is the primary
    /// (data) port, the rest form the reverse channel.
    pub ports: Vec<PortId>,
    /// Source span of the annotation (for diagnostics).
    pub span: SrcSpan,
}

impl ProtocolBinding {
    /// The primary (data) port of the group.
    pub fn primary(&self) -> PortId {
        self.ports[0]
    }

    /// The reverse-channel port, if the group declares one.
    pub fn reverse(&self) -> Option<PortId> {
        self.ports.get(1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_describe() {
        assert_eq!(Template::ValidReady.describe(), "valid_ready");
        assert_eq!(Template::Credit(None).describe(), "credit");
        assert_eq!(Template::Credit(Some(8)).describe(), "credit(8)");
        assert_eq!(Template::ReqResp.describe(), "req_resp");
        assert_eq!(Template::Custom("loopy".into()).describe(), "loopy");
    }

    #[test]
    fn binding_port_accessors() {
        let b = ProtocolBinding {
            group: "ins".into(),
            role: Role::Consumer,
            automaton: Automaton {
                template: Template::Credit(Some(4)),
                states: Vec::new(),
                transitions: Vec::new(),
            },
            ports: vec![PortId(0), PortId(2)],
            span: SrcSpan::default(),
        };
        assert_eq!(b.primary(), PortId(0));
        assert_eq!(b.reverse(), Some(PortId(2)));
        assert_eq!(Role::Producer.to_string(), "producer");
        assert_eq!(ActionDir::Send.sigil(), '!');
        assert_eq!(ActionDir::Recv.sigil(), '?');
    }
}
