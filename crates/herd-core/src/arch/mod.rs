//! Instances of the generic framework: SC, TSO, PSO, RMO, C++ R-A
//! (Fig 21), Power (Fig 17/18/25) and the ARM variants (Tab VII).

mod arm;
mod cpp_ra;
mod power;
mod sc;
mod sparc;
mod tso;

pub use arm::{Arm, ArmVariant};
pub use cpp_ra::{CppRa, CppRaStrength};
pub use power::{prop_power_arm, prop_power_arm_co, prop_power_arm_rf, Power};
pub use sc::Sc;
pub use sparc::{Pso, Rmo};
pub use tso::Tso;

use crate::model::Architecture;

/// All stock architectures, for corpus sweeps and reports.
pub fn all() -> Vec<Box<dyn Architecture>> {
    vec![
        Box::new(Sc),
        Box::new(Tso),
        Box::new(CppRa::new(CppRaStrength::PaperStrong)),
        Box::new(Power::new()),
        Box::new(Arm::new(ArmVariant::Proposed)),
    ]
}

/// Looks an architecture up by (case-insensitive) name:
/// `sc`, `tso`, `pso`, `rmo`, `cpp-ra`, `power`, `arm`, `power-arm`,
/// `arm-llh`.
pub fn by_name(name: &str) -> Option<Box<dyn Architecture>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "sc" => Box::new(Sc) as Box<dyn Architecture>,
        "tso" | "x86" | "x86-tso" => Box::new(Tso),
        "pso" => Box::new(Pso),
        "rmo" => Box::new(Rmo),
        "cpp-ra" | "c++ra" | "cpp" => Box::new(CppRa::new(CppRaStrength::PaperStrong)),
        "power" | "ppc" => Box::new(Power::new()),
        "arm" => Box::new(Arm::new(ArmVariant::Proposed)),
        "power-arm" => Box::new(Arm::new(ArmVariant::PowerArm)),
        "arm-llh" => Box::new(Arm::new(ArmVariant::ProposedLlh)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        for n in ["sc", "TSO", "cpp-ra", "Power", "arm", "power-arm", "arm-llh"] {
            assert!(by_name(n).is_some(), "{n}");
        }
        assert!(by_name("itanium").is_none());
    }

    #[test]
    fn all_architectures_have_distinct_names() {
        let archs = all();
        let mut names: Vec<&str> = archs.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), archs.len());
    }
}
