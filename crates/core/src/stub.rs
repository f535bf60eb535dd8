//! The monitor's half of the debug stub: watchpoints and conditions.
//!
//! The protocol state and the command dispatcher are shared with every
//! stub ([`rdbg::stub`]); [`crate::LvmmPlatform`] is their monitor-resident
//! [`rdbg::stub::Target`]. Its state lives in monitor memory (plain Rust
//! fields — unreachable from the guest by construction of the shadow
//! tables). Breakpoints, their conditions and logpoints live beside it in
//! the machine's monitor-side hook table ([`hx_machine::Machine::hook`]),
//! checked at fetch: guest RAM is never patched. Watchpoints, which no
//! other residency has, live here.

use hx_cpu::mmu::pte;
use hx_query::{Expr, ParseError};
use rdbg::msg::WatchKind;

/// One armed data watchpoint.
#[derive(Debug, Clone)]
pub struct Watchpoint {
    /// Watched guest virtual address.
    pub addr: u32,
    /// Watched range length in bytes.
    pub len: u32,
    /// Which access directions trigger it.
    pub kind: WatchKind,
    /// Optional condition: the stop fires only when it evaluates nonzero
    /// (an unevaluable condition stops too — fail safe).
    pub cond: Option<Expr>,
}

/// Parses the optional condition of a `Qb`, `Qw` or `Ql` command: empty
/// text means no condition (an unconditional stop, an always-firing
/// logpoint).
pub(crate) fn parse_condition(expr: &str) -> Result<Option<Expr>, ParseError> {
    (!expr.is_empty()).then(|| Expr::parse(expr)).transpose()
}

/// The armed data watchpoints.
#[derive(Debug, Clone, Default)]
pub struct Watchpoints(pub Vec<Watchpoint>);

impl Watchpoints {
    /// The shadow-PTE permissions a mapping of the 4 KiB page holding `va`
    /// must withhold: [`pte::R`] when a read-sensitive watchpoint overlaps
    /// the page, [`pte::W`] when a write-sensitive one does.
    pub fn withheld(&self, va: u32) -> u32 {
        let page = va & !0xfff;
        let on_page = |w: &&Watchpoint| {
            w.addr < page.saturating_add(0x1000) && w.addr.saturating_add(w.len) > page
        };
        self.0.iter().filter(on_page).fold(0, |bits, w| {
            let r = if w.kind.watches_read() { pte::R } else { 0 };
            let wr = if w.kind.watches_write() { pte::W } else { 0 };
            bits | r | wr
        })
    }

    /// Does an access to `[va, va+len)` hit a watchpoint exactly?
    /// `is_store` selects the direction the watchpoint must be sensitive
    /// to.
    pub fn watch_hit(&self, va: u32, len: u32, is_store: bool) -> Option<&Watchpoint> {
        self.0.iter().find(|w| {
            let dir = if is_store {
                w.kind.watches_write()
            } else {
                w.kind.watches_read()
            };
            dir && w.addr < va.saturating_add(len) && w.addr.saturating_add(w.len) > va
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(addr: u32, len: u32, kind: WatchKind) -> Watchpoint {
        Watchpoint {
            addr,
            len,
            kind,
            cond: None,
        }
    }

    #[test]
    fn watch_overlap_logic() {
        let mut s = Watchpoints::default();
        // Straddles a page boundary.
        s.0.push(wp(0x2ffc, 8, WatchKind::Write));
        assert_eq!(s.withheld(0x2000), pte::W);
        assert_eq!(s.withheld(0x3000), pte::W, "write-only watch");
        assert_eq!(s.withheld(0x4000), 0);
        assert_eq!(s.watch_hit(0x3000, 4, true).map(|w| w.addr), Some(0x2ffc));
        assert!(s.watch_hit(0x2ff8, 4, true).is_none());
        assert_eq!(s.watch_hit(0x2ff8, 5, true).map(|w| w.addr), Some(0x2ffc));
        assert!(s.watch_hit(0x3004, 4, true).is_none());
        assert!(s.watch_hit(0x3000, 4, false).is_none(), "loads not watched");
    }

    #[test]
    fn watch_kinds_select_directions() {
        let mut s = Watchpoints::default();
        s.0.push(wp(0x1000, 4, WatchKind::Read));
        s.0.push(wp(0x5000, 4, WatchKind::Access));
        assert_eq!(s.withheld(0x1000), pte::R);
        assert_eq!(s.withheld(0x5000), pte::R | pte::W);
        assert!(s.watch_hit(0x1000, 4, true).is_none());
        assert!(s.watch_hit(0x1000, 4, false).is_some());
        assert!(s.watch_hit(0x5000, 4, true).is_some());
        assert!(s.watch_hit(0x5000, 4, false).is_some());
    }
}
