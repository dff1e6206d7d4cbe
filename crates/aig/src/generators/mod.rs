//! Parametric synthetic circuit generators.
//!
//! The paper's workload comes from the EPFL combinational benchmark
//! suite. The suite's circuit files are not redistributable inside this
//! repository, so these generators synthesize the same two families
//! structurally:
//!
//! * **arithmetic**: ripple-carry adders, array multipliers, squarers,
//!   barrel shifters, comparators/max units, parity trees;
//! * **control**: decoders, priority arbiters, majority voters, MUX
//!   trees, and random AND/INV logic.
//!
//! Every generator is verified against a behavioural model in its tests,
//! so the cut functions harvested from them are functions of real,
//! correct circuit structures.

mod arithmetic;
mod control;
mod prefix;
mod random_logic;

pub use arithmetic::{
    array_multiplier, barrel_shifter, comparator, max_unit, parity_tree, ripple_carry_adder,
    squarer,
};
pub use control::{decoder, majority_voter, mux_tree, priority_arbiter};
pub use prefix::{alu_slice, kogge_stone_adder, AluOp};
pub use random_logic::random_logic;
