//! JSON conversions for workload and object types.
//!
//! Enum encodings follow the external-tagging convention the former `serde`
//! derives used: unit variants are bare strings, data-carrying variants are
//! single-key objects (`{"Gaussian": {...}}`, `{"Fixed": 12.5}`).

use crate::{Motion, Placement, SpeedDist, WorkloadSpec};
use mknn_util::impl_json_struct;
use mknn_util::json::{FromJson, Json, JsonError, ToJson};

impl_json_struct!(WorkloadSpec {
    n_objects,
    space_side,
    placement,
    speeds,
    motion,
    move_prob,
    seed,
    speed_overrides [default],
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

impl FromJson for Placement {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "Uniform" => Ok(Placement::Uniform),
            other => {
                let body = other
                    .field("Gaussian")
                    .map_err(|_| JsonError::new("expected \"Uniform\" or {\"Gaussian\": {...}}"))?;
                Ok(Placement::Gaussian {
                    clusters: body.parse_field("clusters")?,
                    sigma: body.parse_field("sigma")?,
                })
            }
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

impl FromJson for SpeedDist {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(val) = v.get("Fixed") {
            return Ok(SpeedDist::Fixed(f64::from_json(val)?));
        }
        if let Some(body) = v.get("Uniform") {
            return Ok(SpeedDist::Uniform {
                min: body.parse_field("min")?,
                max: body.parse_field("max")?,
            });
        }
        if let Some(body) = v.get("Classes") {
            return Ok(SpeedDist::Classes {
                slow: body.parse_field("slow")?,
                medium: body.parse_field("medium")?,
                fast: body.parse_field("fast")?,
            });
        }
        Err(JsonError::new(
            "expected a SpeedDist variant (Fixed/Uniform/Classes)",
        ))
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

impl FromJson for Motion {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => match s.as_str() {
                "Stationary" => Ok(Motion::Stationary),
                "RandomWaypoint" => Ok(Motion::RandomWaypoint),
                "RandomWalk" => Ok(Motion::RandomWalk),
                other => Err(JsonError::new(format!("unknown Motion variant `{other}`"))),
            },
            other => {
                let body = other.field("RoadNetwork").map_err(|_| {
                    JsonError::new("expected a Motion variant string or {\"RoadNetwork\": {...}}")
                })?;
                Ok(Motion::RoadNetwork {
                    nx: body.parse_field("nx")?,
                    ny: body.parse_field("ny")?,
                    drop_prob: body.parse_field("drop_prob")?,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_util::{from_str, to_string};

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
        let s = to_string(v);
        let back: T = from_str(&s).unwrap_or_else(|e| panic!("parse of {s}: {e}"));
        assert_eq!(&back, v, "round trip through {s}");
    }

    #[test]
    fn placement_variants_round_trip() {
        roundtrip(&Placement::Uniform);
        roundtrip(&Placement::Gaussian {
            clusters: 4,
            sigma: 150.0,
        });
    }

    #[test]
    fn speed_dist_variants_round_trip() {
        roundtrip(&SpeedDist::Fixed(12.5));
        roundtrip(&SpeedDist::Uniform { min: 1.0, max: 9.0 });
        roundtrip(&SpeedDist::Classes {
            slow: 1.0,
            medium: 5.0,
            fast: 20.0,
        });
    }

    #[test]
    fn motion_variants_round_trip() {
        roundtrip(&Motion::Stationary);
        roundtrip(&Motion::RandomWaypoint);
        roundtrip(&Motion::RandomWalk);
        roundtrip(&Motion::RoadNetwork {
            nx: 6,
            ny: 7,
            drop_prob: 0.15,
        });
    }

    #[test]
    fn workload_spec_with_overrides_round_trips() {
        let spec = WorkloadSpec {
            speed_overrides: vec![(3, 40.0), (7, 2.5)],
            placement: Placement::Gaussian {
                clusters: 3,
                sigma: 200.0,
            },
            motion: Motion::RoadNetwork {
                nx: 8,
                ny: 8,
                drop_prob: 0.2,
            },
            ..WorkloadSpec::default()
        };
        roundtrip(&spec);
    }

    #[test]
    fn missing_speed_overrides_defaults_to_empty() {
        let spec = WorkloadSpec::default();
        let json = to_string(&spec);
        // Simulate an older document without the field.
        let trimmed = json.replace(",\"speed_overrides\":[]", "");
        assert_ne!(json, trimmed, "test must actually remove the field");
        let back: WorkloadSpec = from_str(&trimmed).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_variants_are_rejected() {
        assert!(from_str::<Motion>("\"Teleport\"").is_err());
        assert!(from_str::<Placement>("{\"Ring\":{}}").is_err());
        assert!(from_str::<SpeedDist>("{\"Pareto\":{}}").is_err());
    }
}
