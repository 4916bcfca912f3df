//! JSON conversions for the geometry types.
//!
//! Formats match what the former `serde` derives produced: structs become
//! objects keyed by field name, and the id newtypes serialize as their bare
//! integer.

use crate::{Annulus, Circle, LinearMotion, ObjectId, Point, QueryId, Rect, Vector};
use mknn_util::impl_json_struct;
use mknn_util::json::{FromJson, Json, JsonError, ToJson};

impl_json_struct!(Point { x, y });
impl_json_struct!(Vector { x, y });
impl_json_struct!(Rect { min, max });
impl_json_struct!(Circle { center, radius });
impl_json_struct!(LinearMotion { origin, velocity });

impl_json_struct!(Annulus { center, inner, outer } validate |a, _| {
    // The checks of `Annulus::new`, as errors: the input is untrusted.
    let msg = if a.center.x.is_nan() || a.center.y.is_nan() {
        "annulus center must not be NaN"
    } else if a.inner.is_nan() || a.inner < 0.0 {
        "annulus inner radius must be non-negative"
    } else if a.outer.is_nan() || a.outer < a.inner {
        "annulus outer radius must be >= inner"
    } else {
        return Ok(());
    };
    Err(JsonError::new(msg))
});

impl ToJson for ObjectId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for ObjectId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(ObjectId)
    }
}

impl ToJson for QueryId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for QueryId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(QueryId)
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
    fn geometry_types_round_trip() {
        roundtrip(&Point::new(1.5, -2.25));
        roundtrip(&Vector::new(0.125, 1e9));
        roundtrip(&Rect::new(Point::new(-1.0, -2.0), Point::new(3.0, 4.0)));
        roundtrip(&Circle {
            center: Point::new(5.0, 6.0),
            radius: 7.5,
        });
        roundtrip(&LinearMotion {
            origin: Point::new(1.0, 2.0),
            velocity: Vector::new(-0.5, 0.25),
        });
        roundtrip(&ObjectId(42));
        roundtrip(&QueryId(7));
    }

    #[test]
    fn unbounded_annulus_round_trips() {
        roundtrip(&Annulus::new(Point::new(3.0, 4.0), 2.0, 4.0));
        roundtrip(&Annulus::new(Point::ORIGIN, 5.0, f64::INFINITY));
    }

    #[test]
    fn invalid_annulus_json_is_rejected_not_panicking() {
        assert!(from_str::<Annulus>(r#"{"center":{"x":0,"y":0},"inner":NaN,"outer":4}"#).is_err());
        assert!(from_str::<Annulus>(r#"{"center":{"x":0,"y":0},"inner":5,"outer":4}"#).is_err());
        assert!(from_str::<Annulus>(r#"{"center":{"x":NaN,"y":0},"inner":1,"outer":4}"#).is_err());
    }

    #[test]
    fn ids_serialize_as_bare_integers() {
        assert_eq!(to_string(&ObjectId(9)), "9");
        assert_eq!(to_string(&QueryId(3)), "3");
    }
}
