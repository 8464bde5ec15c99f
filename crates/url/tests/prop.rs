//! Property-based tests for URL parsing, normalization, and PSL logic.

use proptest::prelude::*;
use wmtree_url::{psl, Party, Url};

/// Strategy for syntactically valid host names made of generator-like labels.
fn host_strategy() -> impl Strategy<Value = String> {
    let label = "[a-z][a-z0-9-]{0,8}";
    let tld = prop::sample::select(vec!["com", "org", "net", "de", "io", "co.uk", "github.io"]);
    (prop::collection::vec(label, 1..4), tld).prop_map(|(labels, tld)| {
        let mut h = labels.join(".");
        h.push('.');
        h.push_str(tld);
        h
    })
}

fn url_strategy() -> impl Strategy<Value = String> {
    let scheme = prop::sample::select(vec!["http", "https", "ws", "wss"]);
    let path = prop::collection::vec("[a-zA-Z0-9_.-]{1,10}", 0..4)
        .prop_map(|segs| format!("/{}", segs.join("/")));
    let query = prop::option::of(prop::collection::vec(
        ("[a-z_]{1,6}", "[a-zA-Z0-9]{0,10}"),
        1..5,
    ));
    (scheme, host_strategy(), path, query).prop_map(|(s, h, p, q)| {
        let mut u = format!("{s}://{h}{p}");
        if let Some(pairs) = q {
            u.push('?');
            u.push_str(
                &pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join("&"),
            );
        }
        u
    })
}

proptest! {
    /// Parse → as_str → parse is a fixed point.
    #[test]
    fn roundtrip_is_fixed_point(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let s = u.as_str();
        let u2 = Url::parse(s).unwrap();
        prop_assert_eq!(u, u2);
    }

    /// Normalization is idempotent: normalizing a normalized URL changes nothing.
    #[test]
    fn normalization_idempotent(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let n1 = u.normalize_for_comparison();
        let u2 = Url::parse(&n1).unwrap();
        prop_assert_eq!(u2.normalize_for_comparison(), n1);
    }

    /// Normalization never changes scheme, host, or path.
    #[test]
    fn normalization_preserves_location(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let n = Url::parse(&u.normalize_for_comparison()).unwrap();
        prop_assert_eq!(n.scheme(), u.scheme());
        prop_assert_eq!(n.host(), u.host());
        prop_assert_eq!(n.path(), u.path());
    }

    /// Two URLs differing only in query values normalize identically.
    #[test]
    fn query_values_do_not_affect_identity(
        host in host_strategy(),
        key in "[a-z_]{1,8}",
        v1 in "[a-zA-Z0-9]{1,12}",
        v2 in "[a-zA-Z0-9]{1,12}",
    ) {
        let a = Url::parse(&format!("https://{host}/r.js?{key}={v1}")).unwrap();
        let b = Url::parse(&format!("https://{host}/r.js?{key}={v2}")).unwrap();
        prop_assert_eq!(a.normalize_for_comparison(), b.normalize_for_comparison());
    }

    /// eTLD+1 is a suffix of the host and contains at most one label more
    /// than the public suffix.
    #[test]
    fn etld_plus_one_is_suffix(host in host_strategy()) {
        let site = psl::etld_plus_one(&host);
        prop_assert!(host.ends_with(&site));
        let suffix = psl::public_suffix(&host);
        prop_assert!(site.ends_with(&suffix));
        let extra = site.len().saturating_sub(suffix.len());
        // site == suffix (host itself a suffix) or exactly one extra label.
        if extra > 0 {
            let lead = &site[..extra - 1]; // strip the joining dot
            prop_assert!(!lead.contains('.'));
        }
    }

    /// eTLD+1 is idempotent.
    #[test]
    fn etld_plus_one_idempotent(host in host_strategy()) {
        let s1 = psl::etld_plus_one(&host);
        let s2 = psl::etld_plus_one(&s1);
        prop_assert_eq!(s2, s1);
    }

    /// Party classification is symmetric in sites: same-site ⇒ First both ways.
    #[test]
    fn party_symmetric(h1 in host_strategy(), h2 in host_strategy()) {
        let a = Url::parse(&format!("https://{h1}/")).unwrap();
        let b = Url::parse(&format!("https://{h2}/")).unwrap();
        prop_assert_eq!(Party::classify(&a, &b), Party::classify(&b, &a));
    }

    /// `from_parts` stores its inputs as given: every accessor returns
    /// exactly what went in, however unusual.
    #[test]
    fn from_parts_accessors_return_their_inputs(
        scheme in "[a-zA-Z][a-zA-Z0-9+.-]{0,6}",
        host in "[a-zA-Z0-9.:-]{0,12}",
        port in prop::option::of(any::<u16>()),
        path in "[a-zA-Z0-9/?#%=&._-]{0,16}",
        query in prop::option::of("[a-zA-Z0-9/?#%=&._-]{0,12}"),
        fragment in prop::option::of("[a-zA-Z0-9/?#%=&._-]{0,8}"),
    ) {
        let u = Url::from_parts(
            &scheme,
            &host,
            port,
            &path,
            query.as_deref(),
            fragment.as_deref(),
        );
        prop_assert_eq!(u.scheme(), scheme.as_str());
        prop_assert_eq!(u.host(), host.as_str());
        prop_assert_eq!(u.port(), port);
        prop_assert_eq!(u.path(), path.as_str());
        prop_assert_eq!(u.query(), query.as_deref());
        prop_assert_eq!(u.fragment(), fragment.as_deref());
        prop_assert_eq!(u.as_str(), concatenation(&u));
        prop_assert_eq!(u.clone(), u);
    }

    /// The stored serialization is the components' concatenation, and
    /// `Display` prints exactly it.
    #[test]
    fn as_str_is_the_concatenation(raw in url_strategy(), frag in prop::option::of("[a-z0-9]{0,6}")) {
        let raw = match frag {
            Some(f) => format!("{raw}#{f}"),
            None => raw,
        };
        let u = Url::parse(&raw).unwrap();
        prop_assert_eq!(u.as_str(), concatenation(&u));
        prop_assert_eq!(u.to_string(), u.as_str());
    }
}

/// The serialization as the six-field representation assembled it: a
/// test-local copy of that concatenation.
fn concatenation(u: &Url) -> String {
    let mut out = String::new();
    out.push_str(u.scheme());
    out.push_str("://");
    out.push_str(u.host());
    if let Some(p) = u.port() {
        out.push(':');
        out.push_str(&p.to_string());
    }
    out.push_str(u.path());
    if let Some(q) = u.query() {
        out.push('?');
        out.push_str(q);
    }
    if let Some(f) = u.fragment() {
        out.push('#');
        out.push_str(f);
    }
    out
}
