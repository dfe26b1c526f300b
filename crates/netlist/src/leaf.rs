//! Leaf-cell interface declarations.
//!
//! A [`LeafDef`] describes the *interface* of a primitive component — its
//! named, directed pins — without saying anything about function or
//! timing. Function and timing live in the `hb-cells` library crate, which
//! registers one `LeafDef` per library cell; the database only needs
//! enough structure to normalize connectivity.

use std::fmt;

use crate::ids::PinSlot;

/// The direction of a pin or port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PinDir {
    /// Data flows into the component.
    Input,
    /// Data flows out of the component.
    Output,
}

impl PinDir {
    /// Returns the opposite direction (an output port of a module is an
    /// input endpoint from the parent's point of view, and vice versa).
    #[inline]
    pub fn flipped(self) -> PinDir {
        match self {
            PinDir::Input => PinDir::Output,
            PinDir::Output => PinDir::Input,
        }
    }
}

impl fmt::Display for PinDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PinDir::Input => "input",
            PinDir::Output => "output",
        })
    }
}

/// One named, directed pin of a leaf interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinDef {
    name: String,
    dir: PinDir,
}

impl PinDef {
    /// Creates a pin definition.
    pub fn new(name: impl Into<String>, dir: PinDir) -> PinDef {
        PinDef {
            name: name.into(),
            dir,
        }
    }

    /// The pin name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pin direction.
    pub fn dir(&self) -> PinDir {
        self.dir
    }
}

/// The interface of a primitive (leaf) component.
///
/// Built with a fluent API and registered into a design with
/// [`crate::Design::declare_leaf`].
///
/// # Examples
///
/// ```
/// use hb_netlist::{LeafDef, PinDir};
///
/// let nand = LeafDef::new("NAND2")
///     .pin("A", PinDir::Input)
///     .pin("B", PinDir::Input)
///     .pin("Y", PinDir::Output);
/// assert_eq!(nand.pins().count(), 3);
/// assert_eq!(nand.pin_by_name("Y").map(|s| s.as_raw()), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct LeafDef {
    name: String,
    pins: Vec<PinDef>,
}

impl LeafDef {
    /// Creates an empty interface with the given cell name.
    pub fn new(name: impl Into<String>) -> LeafDef {
        LeafDef {
            name: name.into(),
            pins: Vec::new(),
        }
    }

    /// Adds a pin, consuming and returning the definition for chaining.
    ///
    /// # Panics
    ///
    /// Panics if a pin with the same name already exists; interfaces are
    /// authored statically and a duplicate is a programming error.
    pub fn pin(mut self, name: impl Into<String>, dir: PinDir) -> LeafDef {
        let name = name.into();
        assert!(
            self.pin_by_name(&name).is_none(),
            "duplicate pin {name:?} on leaf {:?}",
            self.name
        );
        self.pins.push(PinDef::new(name, dir));
        self
    }

    /// The cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of pins.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Iterates over `(slot, definition)` pairs in declaration order.
    pub fn pins(&self) -> impl Iterator<Item = (PinSlot, &PinDef)> {
        self.pins
            .iter()
            .enumerate()
            .map(|(i, p)| (PinSlot(i as u32), p))
    }

    /// Looks up a pin slot by name. A cell has a handful of pins, so
    /// this is a scan.
    pub fn pin_by_name(&self, name: &str) -> Option<PinSlot> {
        self.pins
            .iter()
            .position(|p| p.name() == name)
            .map(|i| PinSlot(i as u32))
    }

    /// Returns the definition of the pin in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range for this interface.
    pub fn pin_def(&self, slot: PinSlot) -> &PinDef {
        &self.pins[slot.idx()]
    }

    /// Returns the slots of all input pins.
    pub fn input_slots(&self) -> impl Iterator<Item = PinSlot> + '_ {
        self.pins()
            .filter(|(_, p)| p.dir() == PinDir::Input)
            .map(|(s, _)| s)
    }

    /// Returns the slots of all output pins.
    pub fn output_slots(&self) -> impl Iterator<Item = PinSlot> + '_ {
        self.pins()
            .filter(|(_, p)| p.dir() == PinDir::Output)
            .map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let def = LeafDef::new("AOI21")
            .pin("A", PinDir::Input)
            .pin("B", PinDir::Input)
            .pin("C", PinDir::Input)
            .pin("Y", PinDir::Output);
        assert_eq!(def.name(), "AOI21");
        assert_eq!(def.pin_count(), 4);
        assert_eq!(def.pin_by_name("C"), Some(PinSlot(2)));
        assert_eq!(def.pin_by_name("Z"), None);
        assert_eq!(def.pin_def(PinSlot(3)).dir(), PinDir::Output);
        assert_eq!(def.input_slots().count(), 3);
        assert_eq!(def.output_slots().collect::<Vec<_>>(), vec![PinSlot(3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate pin")]
    fn duplicate_pin_panics() {
        let _ = LeafDef::new("X")
            .pin("A", PinDir::Input)
            .pin("A", PinDir::Output);
    }

    #[test]
    fn dir_flip() {
        assert_eq!(PinDir::Input.flipped(), PinDir::Output);
        assert_eq!(PinDir::Output.flipped(), PinDir::Input);
        assert_eq!(PinDir::Input.to_string(), "input");
    }
}
