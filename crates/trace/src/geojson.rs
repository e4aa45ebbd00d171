//! GeoJSON export of datasets and inferred graphs, for visual inspection in
//! any GIS viewer (kepler.gl, QGIS, geojson.io).
//!
//! The documents are built as [`JsonValue`](seeker_obs::json::JsonValue)
//! trees and written by `seeker_obs::json`; the output is plain RFC 7946
//! FeatureCollections, with coordinates rounded to 7 decimals (about a
//! centimetre).

use seeker_obs::json::JsonValue;

use crate::dataset::Dataset;
use crate::types::{GeoPoint, UserId, UserPair};

/// Exports the dataset's visited POIs as a GeoJSON `FeatureCollection` of
/// points. Each feature carries the POI id and its visit count.
pub fn pois_to_geojson(ds: &Dataset) -> String {
    let mut visits = vec![0u32; ds.n_pois()];
    for c in ds.checkins() {
        visits[c.poi.index()] += 1;
    }
    let features = ds.pois().iter().filter(|p| visits[p.id.index()] > 0).map(|p| {
        let properties = JsonValue::object([
            ("poi", u64::from(p.id.raw()).into()),
            ("visits", u64::from(visits[p.id.index()]).into()),
        ]);
        ("Point", position(p.center), properties)
    });
    feature_collection(ds.name(), features)
}

/// Exports a set of user pairs (e.g. an inferred friendship graph) as
/// GeoJSON `LineString`s between the users' mean check-in locations.
/// Pairs whose endpoints have no check-ins are skipped.
pub fn edges_to_geojson(ds: &Dataset, pairs: &[UserPair], name: &str) -> String {
    let centers: Vec<Option<GeoPoint>> = ds.users().map(|u| user_mean(ds, u)).collect();
    let features = pairs.iter().filter_map(|pair| {
        let (a, b) = (centers[pair.lo().index()]?, centers[pair.hi().index()]?);
        let properties = JsonValue::object([
            ("a", u64::from(pair.lo().raw()).into()),
            ("b", u64::from(pair.hi().raw()).into()),
        ]);
        Some(("LineString", JsonValue::Array(vec![position(a), position(b)]), properties))
    });
    feature_collection(name, features)
}

/// A GeoJSON position: `[lon, lat]`.
fn position(p: GeoPoint) -> JsonValue {
    JsonValue::Array(vec![JsonValue::rounded(p.lon, 7), JsonValue::rounded(p.lat, 7)])
}

/// Renders `(geometry type, coordinates, properties)` triples as one
/// compact `FeatureCollection` named `name`.
fn feature_collection(
    name: &str,
    features: impl Iterator<Item = (&'static str, JsonValue, JsonValue)>,
) -> String {
    let features = features
        .map(|(kind, coordinates, properties)| {
            JsonValue::object([
                ("type", "Feature".into()),
                (
                    "geometry",
                    JsonValue::object([("type", kind.into()), ("coordinates", coordinates)]),
                ),
                ("properties", properties),
            ])
        })
        .collect();
    JsonValue::object([
        ("type", "FeatureCollection".into()),
        ("name", name.into()),
        ("features", JsonValue::Array(features)),
    ])
    .to_compact_string()
}

fn user_mean(ds: &Dataset, u: UserId) -> Option<GeoPoint> {
    let traj = ds.trajectory(u);
    if traj.is_empty() {
        return None;
    }
    let (mut lat, mut lon) = (0.0f64, 0.0f64);
    for c in traj {
        let p = ds.poi(c.poi).center;
        lat += p.lat;
        lon += p.lon;
    }
    let n = traj.len() as f64;
    Some(GeoPoint::new(lat / n, lon / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SyntheticConfig};
    use crate::DatasetBuilder;
    use crate::Timestamp;
    use seeker_obs::json;

    #[test]
    fn poi_export_contains_visited_pois_only() {
        let mut b = DatasetBuilder::new("g");
        let p0 = b.add_poi(GeoPoint::new(1.0, 2.0), 10.0);
        let _unvisited = b.add_poi(GeoPoint::new(3.0, 4.0), 10.0);
        b.add_checkin(1, p0, Timestamp::from_secs(0));
        b.add_checkin(1, p0, Timestamp::from_secs(1));
        let ds = b.build().unwrap();
        let json = pois_to_geojson(&ds);
        assert!(json.contains(r#""type":"FeatureCollection""#));
        assert!(json.contains(r#""visits":2"#));
        assert!(!json.contains("[4,3]"));
        // Coordinates are [lon, lat].
        assert!(json.contains("[2,1]"));
    }

    #[test]
    fn edge_export_draws_linestrings() {
        let ds = generate(&SyntheticConfig::small(151)).unwrap().dataset;
        let pairs: Vec<UserPair> = ds.friendships().take(5).collect();
        let json = edges_to_geojson(&ds, &pairs, "friends");
        assert!(json.contains(r#""name":"friends""#));
        assert_eq!(json.matches(r#""type":"LineString""#).count(), pairs.len());
    }

    #[test]
    fn output_is_structurally_balanced_json() {
        let ds = generate(&SyntheticConfig::small(152)).unwrap().dataset;
        let pairs: Vec<UserPair> = ds.friendships().take(5).collect();
        for text in [
            pois_to_geojson(&ds),
            edges_to_geojson(&ds, &pairs, "friends"),
            edges_to_geojson(&ds, &[], "empty"),
        ] {
            let doc = json::parse(&text).expect("valid JSON");
            assert_eq!(doc.get("type").and_then(JsonValue::as_str), Some("FeatureCollection"));
            assert!(doc.get("features").and_then(JsonValue::as_array).is_some());
        }
    }

    #[test]
    fn coordinates_round_to_seven_decimals() {
        let p = GeoPoint::new(-33.868_819_999_9, 151.209_295_000_04);
        assert_eq!(position(p).to_compact_string(), "[151.209295,-33.86882]");
    }

    #[test]
    fn names_are_escaped() {
        let ds = generate(&SyntheticConfig::small(153)).unwrap().dataset;
        let json = edges_to_geojson(&ds, &[], "a\"b\\c\nd\u{1}");
        assert!(json.contains(r#""name":"a\"b\\c\nd\u0001""#));
    }
}
