//! The URL representation: one serialization buffer plus component
//! offsets. These checks pin what the rest of the pipeline relies on:
//! the accessors, `as_str` and `Display` agree with the six components,
//! every URL a crawl records re-parses to itself, and the serde shape is
//! the six-field one archived JSON already holds.

use wmtree::crawler::{Commander, CrawlOptions};
use wmtree::url::Url;
use wmtree::webgen::WebUniverse;
use wmtree::{ExperimentConfig, Scale};

/// The serialization the six-field representation built on every call,
/// kept here as the reference the stored buffer must equal.
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

#[test]
fn from_parts_accessors_return_their_inputs() {
    let u = Url::from_parts(
        "HTTPS",
        "Cdn.Example.com",
        Some(8443),
        "/a/%41?b",
        Some("k=v&flag"),
        Some(""),
    );
    // Taken as stored: no case folding, no re-splitting of the path.
    assert_eq!(u.scheme(), "HTTPS");
    assert_eq!(u.host(), "Cdn.Example.com");
    assert_eq!(u.port(), Some(8443));
    assert_eq!(u.path(), "/a/%41?b");
    assert_eq!(u.query(), Some("k=v&flag"));
    assert_eq!(u.fragment(), Some(""));
    assert_eq!(u.as_str(), concatenation(&u));
    assert_eq!(u.to_string(), u.as_str());

    let bare = Url::from_parts("http", "a.com", None, "/", None, None);
    assert_eq!(bare.as_str(), "http://a.com/");
    assert_eq!((bare.query(), bare.fragment()), (None, None));
    // An empty query is still a query.
    let empty_query = Url::from_parts("http", "a.com", None, "/", Some(""), None);
    assert_eq!(empty_query.as_str(), "http://a.com/?");
    assert_ne!(empty_query, bare);
}

#[test]
fn every_request_url_of_a_tiny_crawl_reparses_to_itself() {
    let config = ExperimentConfig::at_scale(Scale::Tiny);
    let universe = WebUniverse::generate(config.universe);
    let db = Commander::new(
        &universe,
        config.profiles.clone(),
        CrawlOptions {
            max_pages_per_site: config.max_pages_per_site,
            workers: 1,
            experiment_seed: config.experiment_seed,
            reliable: config.reliable,
            stateful: false,
        },
    )
    .run();

    let mut checked = 0usize;
    for page in db.pages() {
        for profile in 0..db.n_profiles() {
            let Some(visit) = db.visit_any(page, profile) else {
                continue;
            };
            let urls = std::iter::once(&visit.page_url).chain(
                visit
                    .requests
                    .iter()
                    .flat_map(|r| std::iter::once(&r.url).chain(r.redirect_from.as_ref())),
            );
            for u in urls {
                assert_eq!(u.as_str(), concatenation(u));
                assert_eq!(u.to_string(), u.as_str());
                assert_eq!(Url::parse(u.as_str()).as_ref(), Ok(u), "{u}");
                checked += 1;
            }
        }
    }
    assert!(checked > 10_000, "only {checked} URLs crawled");
}

#[test]
fn serde_shape_is_the_six_component_fields() {
    // Captured from the six-field representation's derived serde.
    const FULL: &str = r#"{"scheme":"https","host":"www.example.com","port":8443,"path":"/a/b%41","query":"k=v&flag","fragment":"frag"}"#;
    const BARE: &str =
        r#"{"scheme":"http","host":"a.com","port":null,"path":"/","query":null,"fragment":null}"#;
    for (raw, pinned) in [
        ("HTTPS://WWW.Example.Com:8443/a/b%41?k=v&flag#frag", FULL),
        ("http://a.com", BARE),
    ] {
        let u = Url::parse(raw).expect("parses");
        assert_eq!(serde_json::to_string(&u).expect("serialize"), pinned);
        let back: Url = serde_json::from_str(pinned).expect("deserialize");
        assert_eq!(back, u);
        assert_eq!(back.as_str(), u.as_str());
    }
}
