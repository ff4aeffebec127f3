//! Modules (blocks) and the `BlockCode` trait.

use crate::sim::Context;
use std::fmt;

/// Identifier of a module registered in the simulator.
///
/// Mirrors VisibleSim's block identifiers; the Smart Blocks layer maps it
/// 1:1 to `sb_grid::BlockId`-style identifiers (`sb-desim` deliberately
/// does not depend on the grid crate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

impl ModuleId {
    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An RGB colour used for debugging, mirroring VisibleSim's
/// `setColor` facility ("VisibleSim has helped debugging the program by
/// changing the color of the blocks during the program").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Color {
    /// Red component.
    pub r: u8,
    /// Green component.
    pub g: u8,
    /// Blue component.
    pub b: u8,
}

impl Color {
    /// A few named colours used by the Smart Blocks block code.
    pub const GREY: Color = Color {
        r: 128,
        g: 128,
        b: 128,
    };
    /// Red: the Root block.
    pub const RED: Color = Color {
        r: 220,
        g: 40,
        b: 40,
    };
    /// Green: a block on the finished path.
    pub const GREEN: Color = Color {
        r: 40,
        g: 200,
        b: 40,
    };
    /// Blue: the currently elected block.
    pub const BLUE: Color = Color {
        r: 40,
        g: 80,
        b: 220,
    };
    /// Yellow: a candidate block.
    pub const YELLOW: Color = Color {
        r: 230,
        g: 210,
        b: 40,
    };
}

/// The per-block user program, equivalent to a VisibleSim *BlockCode*.
///
/// A block code reacts to three kinds of events.  All interaction with the
/// outside world (sending messages, setting timers, reading or mutating
/// the shared world, changing the block colour) goes through the
/// [`Context`].
///
/// `M` is the message type exchanged between modules; `W` is the shared
/// world type.
pub trait BlockCode<M, W>: Send {
    /// Called once when the simulation starts (time 0), in module
    /// registration order.
    fn on_start(&mut self, ctx: &mut Context<'_, M, W>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this module.
    fn on_message(&mut self, from: ModuleId, msg: M, ctx: &mut Context<'_, M, W>);

    /// Called when a timer set through [`Context::set_timer`] fires; `tag`
    /// is the value passed when the timer was armed.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, M, W>) {
        let _ = (tag, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_id_display() {
        assert_eq!(ModuleId(3).to_string(), "m3");
        assert_eq!(format!("{:?}", ModuleId(3)), "m3");
        assert_eq!(ModuleId(7).index(), 7);
    }

    #[test]
    fn named_colors_are_distinct() {
        let colors = [
            Color::GREY,
            Color::RED,
            Color::GREEN,
            Color::BLUE,
            Color::YELLOW,
        ];
        for (i, a) in colors.iter().enumerate() {
            for b in colors.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
