//! JSON conversions for workload and object types.
//!
//! Enum encodings follow the external-tagging convention the former `serde`
//! derives used: unit variants are bare strings, data-carrying variants are
//! single-key objects (`{"Gaussian": {...}}`, `{"Fixed": 12.5}`). These
//! documents are written, never read back.

use crate::{Motion, Placement, SpeedDist, WorkloadSpec};
use mknn_util::impl_json_struct;
use mknn_util::json::{Json, ToJson};

impl_json_struct!(WorkloadSpec {
    n_objects,
    space_side,
    placement,
    speeds,
    motion,
    move_prob,
    seed,
    speed_overrides,
});

impl ToJson for Placement {
    fn to_json(&self) -> Json {
        match *self {
            Placement::Uniform => Json::Str("Uniform".into()),
            Placement::Gaussian { clusters, sigma } => Json::object([(
                "Gaussian",
                Json::object([("clusters", clusters.to_json()), ("sigma", sigma.to_json())]),
            )]),
        }
    }
}

impl ToJson for SpeedDist {
    fn to_json(&self) -> Json {
        match *self {
            SpeedDist::Fixed(v) => Json::object([("Fixed", v.to_json())]),
            SpeedDist::Uniform { min, max } => Json::object([(
                "Uniform",
                Json::object([("min", min.to_json()), ("max", max.to_json())]),
            )]),
            SpeedDist::Classes { slow, medium, fast } => Json::object([(
                "Classes",
                Json::object([
                    ("slow", slow.to_json()),
                    ("medium", medium.to_json()),
                    ("fast", fast.to_json()),
                ]),
            )]),
        }
    }
}

impl ToJson for Motion {
    fn to_json(&self) -> Json {
        match *self {
            Motion::Stationary => Json::Str("Stationary".into()),
            Motion::RandomWaypoint => Json::Str("RandomWaypoint".into()),
            Motion::RandomWalk => Json::Str("RandomWalk".into()),
            Motion::RoadNetwork { nx, ny, drop_prob } => Json::object([(
                "RoadNetwork",
                Json::object([
                    ("nx", nx.to_json()),
                    ("ny", ny.to_json()),
                    ("drop_prob", drop_prob.to_json()),
                ]),
            )]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_util::to_string;

    #[test]
    fn placement_variants_render_externally_tagged() {
        assert_eq!(to_string(&Placement::Uniform), r#""Uniform""#);
        let gaussian = Placement::Gaussian {
            clusters: 4,
            sigma: 150.0,
        };
        assert_eq!(
            to_string(&gaussian),
            r#"{"Gaussian":{"clusters":4,"sigma":150}}"#
        );
    }

    #[test]
    fn speed_dist_variants_render_externally_tagged() {
        assert_eq!(to_string(&SpeedDist::Fixed(12.5)), r#"{"Fixed":12.5}"#);
        assert_eq!(
            to_string(&SpeedDist::Uniform { min: 1.0, max: 9.0 }),
            r#"{"Uniform":{"min":1,"max":9}}"#
        );
        let classes = SpeedDist::Classes {
            slow: 1.0,
            medium: 5.0,
            fast: 20.0,
        };
        assert_eq!(
            to_string(&classes),
            r#"{"Classes":{"slow":1,"medium":5,"fast":20}}"#
        );
    }

    #[test]
    fn motion_variants_render_externally_tagged() {
        assert_eq!(to_string(&Motion::Stationary), r#""Stationary""#);
        assert_eq!(to_string(&Motion::RandomWaypoint), r#""RandomWaypoint""#);
        assert_eq!(to_string(&Motion::RandomWalk), r#""RandomWalk""#);
        let road = Motion::RoadNetwork {
            nx: 6,
            ny: 7,
            drop_prob: 0.15,
        };
        assert_eq!(
            to_string(&road),
            r#"{"RoadNetwork":{"nx":6,"ny":7,"drop_prob":0.15}}"#
        );
    }

    #[test]
    fn workload_spec_writes_overrides_as_pairs() {
        let spec = WorkloadSpec {
            speed_overrides: vec![(3, 40.0), (7, 2.5)],
            ..WorkloadSpec::default()
        };
        let s = to_string(&spec);
        assert!(
            s.ends_with(r#","speed_overrides":[[3,40],[7,2.5]]}"#),
            "got: {s}"
        );
    }
}
