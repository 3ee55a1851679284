//! Kernel-side interrupt management.
//!
//! Userspace drivers obtain an IRQ-handler capability (minted from
//! `IrqControl`) and bind it to a notification object; when the line fires,
//! the kernel's interrupt path signals that notification, waking the driver
//! thread. The table is a flat array — the lookup on the interrupt
//! delivery path is O(1), which is what allows the path to be short enough
//! to pin (§4).

use crate::cap::Badge;
use crate::obj::ObjId;

/// Number of interrupt lines (matches `rt_hw::irq::NUM_LINES`).
pub const NUM_IRQ_LINES: usize = 32;

/// Per-line binding of an IRQ to a notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IrqBinding {
    /// Notification to signal.
    pub ntfn: ObjId,
    /// Badge OR-ed into the notification word.
    pub badge: Badge,
}

/// The kernel's IRQ dispatch table.
#[derive(Clone, Debug, Default, Hash)]
pub struct IrqTable {
    bindings: [Option<IrqBinding>; NUM_IRQ_LINES],
    /// Lines for which an IrqHandler cap has been issued (at most one each).
    issued: [bool; NUM_IRQ_LINES],
}

impl IrqTable {
    /// Creates an empty table.
    pub fn new() -> IrqTable {
        IrqTable::default()
    }

    /// Marks a handler cap as issued for `line`. Returns `false` if one
    /// already exists (IrqControl refuses duplicates).
    pub fn issue(&mut self, line: u8) -> bool {
        let l = line as usize;
        if self.issued[l] {
            return false;
        }
        self.issued[l] = true;
        true
    }

    /// Returns the handler cap for `line` when deleted, allowing re-issue.
    pub fn retire(&mut self, line: u8) {
        let l = line as usize;
        self.issued[l] = false;
        self.bindings[l] = None;
    }

    /// Binds `line` to a notification.
    pub fn bind(&mut self, line: u8, ntfn: ObjId, badge: Badge) {
        self.bindings[line as usize] = Some(IrqBinding { ntfn, badge });
    }

    /// The binding for `line`, if any — the single load on the interrupt
    /// delivery path.
    pub fn lookup(&self, line: u8) -> Option<IrqBinding> {
        self.bindings[line as usize]
    }

    /// Drops every binding that targets `ntfn` (called when the
    /// notification object is destroyed so the table never dangles).
    pub fn unbind_ntfn(&mut self, ntfn: ObjId) {
        for b in &mut self.bindings {
            if b.map(|x| x.ntfn) == Some(ntfn) {
                *b = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_bind_lookup() {
        let mut t = IrqTable::new();
        assert!(t.issue(5));
        assert!(!t.issue(5), "duplicate handler refused");
        t.bind(5, ObjId(9), Badge(0x10));
        assert_eq!(
            t.lookup(5),
            Some(IrqBinding {
                ntfn: ObjId(9),
                badge: Badge(0x10)
            })
        );
        assert_eq!(t.lookup(6), None);
    }

    #[test]
    fn retire_allows_reissue() {
        let mut t = IrqTable::new();
        assert!(t.issue(3));
        t.bind(3, ObjId(1), Badge(1));
        t.retire(3);
        assert_eq!(t.lookup(3), None);
        assert!(t.issue(3));
    }

    #[test]
    fn unbind_ntfn_sweeps_all_lines() {
        let mut t = IrqTable::new();
        t.bind(1, ObjId(7), Badge(1));
        t.bind(2, ObjId(7), Badge(2));
        t.bind(3, ObjId(8), Badge(4));
        t.unbind_ntfn(ObjId(7));
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.lookup(2), None);
        assert!(t.lookup(3).is_some());
    }
}
