//! Geolocation community encoding.
//!
//! The paper identifies *informational geolocation communities* — tags that
//! large transit ASes attach on ingress to encode **where** a route entered
//! the network ("North America, Dallas, TX") — as the primary source of
//! community exploration. Real ASes each use private encodings (e.g.
//! Level 3 / AS3356 uses 3356:2000-series values); this module defines one
//! concrete, documented scheme that the simulator's taggers and the
//! analysis decoder share, mirroring the three scopes the paper observes:
//! geographical region (continent), country, and city.
//!
//! Layout of the 16-bit community value:
//!
//! | range           | meaning                        |
//! |-----------------|--------------------------------|
//! | 2001–2007       | continent (1–7)                |
//! | 2100–2499       | country id (0–399)             |
//! | 2500–5999       | city id (0–3499)               |
//!
//! The high 16 bits are the tagging AS's number, so a decoded tag also
//! names *who* tagged — which the analysis uses to attribute exploration
//! to a neighbor (the paper's AS3356 example).

use std::fmt;

use crate::community::Community;
use crate::community_set::CommunitySet;

/// Base value for continent codes.
pub(crate) const CONTINENT_BASE: u16 = 2000;
/// Number of continent codes (1–7: AF, AN, AS, EU, NA, OC, SA).
pub(crate) const CONTINENT_COUNT: u16 = 7;
/// Base value for country codes.
pub(crate) const COUNTRY_BASE: u16 = 2100;
/// Number of country ids.
pub(crate) const COUNTRY_COUNT: u16 = 400;
/// Base value for city codes.
pub(crate) const CITY_BASE: u16 = 2500;
/// Number of city ids.
pub(crate) const CITY_COUNT: u16 = 3500;

/// The geographic scope a single community encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GeoScope {
    /// Geographical region / continent.
    Continent,
    /// Country.
    Country,
    /// City / metro.
    City,
}

impl fmt::Display for GeoScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GeoScope::Continent => "continent",
            GeoScope::Country => "country",
            GeoScope::City => "city",
        })
    }
}

/// A full ingress location: continent + country + city.
///
/// Continent ids are 1-based (1–7); country and city ids are 0-based and
/// bounded by `COUNTRY_COUNT` (400) / `CITY_COUNT` (3500).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeoTag {
    /// Continent id, 1–7.
    pub continent: u8,
    /// Country id, < 400.
    pub country: u16,
    /// City id, < 3500.
    pub city: u16,
}

impl GeoTag {
    /// Creates a tag, clamping ids into their valid ranges.
    pub fn new(continent: u8, country: u16, city: u16) -> Self {
        GeoTag {
            continent: continent.clamp(1, CONTINENT_COUNT as u8),
            country: country % COUNTRY_COUNT,
            city: city % CITY_COUNT,
        }
    }

    /// The three communities a geo-tagging AS (`asn16`) attaches on
    /// ingress: one continent, one country, one city community — matching
    /// the mix the paper decodes ("9 city communities, two country and two
    /// geographical regions").
    pub fn to_communities(self, asn16: u16) -> [Community; 3] {
        [
            Community::from_parts(asn16, CONTINENT_BASE + self.continent as u16),
            Community::from_parts(asn16, COUNTRY_BASE + self.country),
            Community::from_parts(asn16, CITY_BASE + self.city),
        ]
    }

    /// Inserts the three location communities into a set.
    pub fn tag(self, asn16: u16, set: &mut CommunitySet) {
        set.extend(self.to_communities(asn16));
    }
}

impl fmt::Display for GeoTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "geo(c{} n{} y{})", self.continent, self.country, self.city)
    }
}

/// Decodes one community as a location community, returning the scope and
/// the id, if its value lies in the geo ranges.
pub fn decode_geo(c: Community) -> Option<(GeoScope, u16)> {
    let v = c.value_part();
    if (CONTINENT_BASE + 1..=CONTINENT_BASE + CONTINENT_COUNT).contains(&v) {
        Some((GeoScope::Continent, v - CONTINENT_BASE))
    } else if (COUNTRY_BASE..COUNTRY_BASE + COUNTRY_COUNT).contains(&v) {
        Some((GeoScope::Country, v - COUNTRY_BASE))
    } else if (CITY_BASE..CITY_BASE + CITY_COUNT).contains(&v) {
        Some((GeoScope::City, v - CITY_BASE))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_produces_three_scopes() {
        let tag = GeoTag::new(5, 42, 137); // North America-ish
        let comms = tag.to_communities(3356);
        assert_eq!(comms.len(), 3);
        assert_eq!(decode_geo(comms[0]), Some((GeoScope::Continent, 5)));
        assert_eq!(decode_geo(comms[1]), Some((GeoScope::Country, 42)));
        assert_eq!(decode_geo(comms[2]), Some((GeoScope::City, 137)));
        for c in comms {
            assert_eq!(c.asn_part(), 3356);
        }
    }

    #[test]
    fn clamping_keeps_ids_in_range() {
        let t = GeoTag::new(0, COUNTRY_COUNT + 5, CITY_COUNT + 9);
        assert_eq!(t.continent, 1);
        assert_eq!(t.country, 5);
        assert_eq!(t.city, 9);
        let t2 = GeoTag::new(200, 0, 0);
        assert_eq!(t2.continent, CONTINENT_COUNT as u8);
    }

    #[test]
    fn non_geo_values_decode_to_none() {
        assert_eq!(decode_geo(Community::from_parts(3356, 100)), None);
        assert_eq!(decode_geo(Community::from_parts(3356, 1999)), None);
        assert_eq!(decode_geo(Community::from_parts(3356, 2000)), None); // base itself invalid
        assert_eq!(decode_geo(Community::from_parts(3356, 6000)), None);
    }

    #[test]
    fn boundaries() {
        assert_eq!(decode_geo(Community::from_parts(1, 2001)), Some((GeoScope::Continent, 1)));
        assert_eq!(decode_geo(Community::from_parts(1, 2007)), Some((GeoScope::Continent, 7)));
        assert_eq!(decode_geo(Community::from_parts(1, 2100)), Some((GeoScope::Country, 0)));
        assert_eq!(decode_geo(Community::from_parts(1, 2499)), Some((GeoScope::Country, 399)));
        assert_eq!(decode_geo(Community::from_parts(1, 2500)), Some((GeoScope::City, 0)));
        assert_eq!(decode_geo(Community::from_parts(1, 5999)), Some((GeoScope::City, 3499)));
    }

    #[test]
    fn distinct_cities_distinct_attributes() {
        // Community exploration: different ingress cities must yield
        // different community attributes.
        let mut a = CommunitySet::new();
        GeoTag::new(4, 10, 100).tag(3356, &mut a);
        let mut b = CommunitySet::new();
        GeoTag::new(4, 10, 101).tag(3356, &mut b);
        assert_ne!(a, b);
    }
}
