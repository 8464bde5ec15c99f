//! Robustness of the binary record codec: every visit of a Tiny crawl
//! and of the synthetic bundle-property databases round-trips to equal
//! values and identical bytes, and malformed input — truncation,
//! oversized lengths, invalid UTF-8, unknown tags, trailing bytes, any
//! flipped byte — is an error, never a panic.

use wmtree::browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use wmtree::bundle::codec::{self, Codec};
use wmtree::bundle::record::{Checkpoint, Record, VisitRef};
use wmtree::bundle::{decode_object, EncodedObject};
use wmtree::crawler::{Commander, CrawlOptions};
use wmtree::net::cookie::{Cookie, SameSite};
use wmtree::net::{ResourceType, Status};
use wmtree::url::Url;
use wmtree::webgen::stable_hash;
use wmtree::{Experiment, ExperimentConfig, Scale};

/// Every visit of the Tiny crawl, in database order.
fn tiny_visits() -> Vec<VisitResult> {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let cfg = exp.config();
    let db = Commander::new(
        exp.universe(),
        cfg.profiles.clone(),
        CrawlOptions {
            max_pages_per_site: cfg.max_pages_per_site,
            workers: cfg.workers,
            experiment_seed: cfg.experiment_seed,
            reliable: cfg.reliable,
            stateful: false,
        },
    )
    .run();
    let mut out = Vec::new();
    for page in db.pages() {
        for profile in 0..db.n_profiles() {
            out.extend(db.visit_any(page, profile).cloned());
        }
    }
    out
}

/// The visits of `crates/crawler/tests/bundle_prop.rs`'s synthetic
/// databases: failed-visit shells with seed-derived success, timeout
/// and duration.
fn synthetic_visits(seed: u64) -> Vec<VisitResult> {
    let mut out = Vec::new();
    for s in 0..4 {
        for p in 0..4 {
            let url = format!("https://www.site-{s}.com/page/{p}");
            for profile in 0..5 {
                let bits = stable_hash(seed, format!("site-{s}.com:{p}:{profile}").as_bytes());
                let mut visit = VisitResult::failed(Url::parse(&url).expect("synthetic url"));
                visit.success = bits % 4 != 1;
                visit.timed_out = bits % 16 == 2;
                visit.duration_ms = if visit.success { (bits >> 8) % 3 } else { 0 };
                out.push(visit);
            }
        }
    }
    out
}

/// A visit exercising every variant, option state and extreme value
/// the codec has: unicode, empty strings, negative `max_age`, `u64`
/// and `u32` maxima.
fn exhaustive_visit() -> VisitResult {
    let url = |s: &str| Url::parse(s).expect("test url");
    let triggers = [
        TriggerSource::Parser,
        TriggerSource::Script("https://cdn.example/app.js".into()),
        TriggerSource::Css("https://cdn.example/s.css".into()),
        TriggerSource::Redirect("https://a.example/r".into()),
        TriggerSource::WebSocketPush("wss://ws.example/".into()),
        TriggerSource::Navigation,
    ];
    let types = [
        ResourceType::MainFrame,
        ResourceType::SubFrame,
        ResourceType::Script,
        ResourceType::Stylesheet,
        ResourceType::Image,
        ResourceType::ImageSet,
        ResourceType::Font,
        ResourceType::Media,
        ResourceType::Xhr,
        ResourceType::WebSocket,
        ResourceType::Beacon,
        ResourceType::CspReport,
        ResourceType::Other,
    ];
    let requests = types
        .iter()
        .enumerate()
        .map(|(i, &resource_type)| RequestRecord {
            id: if i == 0 { u64::MAX } else { i as u64 },
            url: url(&format!("https://h{i}.example:8443/p/ä?q={i}#f")),
            resource_type,
            frame_id: if i == 1 { u32::MAX } else { 0 },
            call_stack: (0..i % 3)
                .map(|d| StackEntry {
                    url: format!("https://s{d}.example/x.js"),
                    function: if d == 0 { String::new() } else { "λ".into() },
                })
                .collect(),
            redirect_from: (i % 2 == 0).then(|| url("http://old.example/")),
            trigger: triggers[i % triggers.len()].clone(),
            started_ms: i as u64 * 1000,
            completed_ms: i as u64 * 1000 + 7,
            status: Status(if i == 2 { u16::MAX } else { 200 }),
            set_cookies: vec![format!("c{i}=v; Path=/"), String::new()],
            is_frame_navigation: i < 2,
        })
        .collect();
    let same_sites = [
        None,
        Some(SameSite::Strict),
        Some(SameSite::Lax),
        Some(SameSite::None),
    ];
    let cookies = same_sites
        .iter()
        .enumerate()
        .map(|(i, &same_site)| Cookie {
            name: format!("n{i}"),
            value: "ü".repeat(i),
            domain: "example".into(),
            host_only: i % 2 == 0,
            path: "/".into(),
            secure: i % 2 == 1,
            http_only: i > 1,
            same_site,
            max_age: [None, Some(-1), Some(i64::MIN), Some(i64::MAX)][i],
            expires: (i == 3).then(|| "Wed, 21 Oct 2015 07:28:00 GMT".into()),
        })
        .collect();
    VisitResult {
        page_url: url("https://www.example/"),
        success: true,
        timed_out: true,
        requests,
        frames: vec![
            FrameRecord {
                frame_id: 0,
                parent_frame_id: None,
                document_url: "https://www.example/".into(),
            },
            FrameRecord {
                frame_id: 1,
                parent_frame_id: Some(0),
                document_url: String::new(),
            },
        ],
        cookies,
        duration_ms: u64::MAX,
    }
}

fn records() -> Vec<Record> {
    vec![
        Record::Visit(VisitRef {
            site: "a.com".into(),
            url: "https://www.a.com/é".into(),
            profile: 4,
            object: u64::MAX,
        }),
        Record::Checkpoint(Checkpoint {
            site: String::new(),
            visits: usize::MAX,
        }),
    ]
}

fn assert_roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) -> Vec<u8> {
    let bytes = codec::encode(value);
    let back: T = codec::decode(&bytes).expect("decodes");
    assert_eq!(&back, value);
    assert_eq!(codec::encode(&back), bytes, "re-encoding is byte-identical");
    bytes
}

#[test]
fn every_visit_roundtrips_to_equal_values_and_identical_bytes() {
    let tiny = tiny_visits();
    assert!(tiny.len() > 100, "the Tiny crawl has visits");
    let synthetic = (0..20).flat_map(synthetic_visits);
    for visit in tiny
        .iter()
        .cloned()
        .chain(synthetic)
        .chain([exhaustive_visit()])
    {
        let bytes = assert_roundtrip(&visit);
        // Through the object store's framing too.
        let encoded = EncodedObject::encode(&visit);
        assert_eq!(encoded.entry[8..], bytes[..]);
        let loc = wmtree::bundle::segment::RecordLoc {
            segment: "objects-000.seg".into(),
            line: 1,
            offset: 0,
        };
        assert_eq!(
            decode_object(&loc, &encoded.entry).expect("object"),
            (encoded.hash, visit)
        );
    }
    for record in records() {
        assert_roundtrip(&record);
    }
}

#[test]
fn every_strict_prefix_is_an_error() {
    let mut tiny = tiny_visits();
    tiny.sort_by_key(|v| std::cmp::Reverse(codec::encode(v).len()));
    let samples = [
        tiny[0].clone(),
        tiny[tiny.len() / 2].clone(),
        exhaustive_visit(),
    ];
    for visit in &samples {
        let bytes = codec::encode(visit);
        for cut in 0..bytes.len() {
            assert!(
                codec::decode::<VisitResult>(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of {} decoded",
                bytes.len()
            );
        }
    }
    for record in records() {
        let bytes = codec::encode(&record);
        for cut in 0..bytes.len() {
            assert!(codec::decode::<Record>(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn oversized_length_prefixes_fail_before_allocating() {
    // A request count of 2^60: allocating for it would abort the
    // process, so an `Err` here shows the count was checked first.
    let mut bytes = codec::encode(&VisitResult::failed(
        Url::parse("https://a.example/").expect("url"),
    ));
    let page_url_len = codec::encode(&Url::parse("https://a.example/").expect("url")).len();
    let count_at = page_url_len + 2; // past `success` and `timed_out`
    assert_eq!(bytes[count_at], 0, "empty request list");
    let mut huge = Vec::new();
    (1u64 << 60).encode(&mut huge);
    bytes.splice(count_at..=count_at, huge);
    let err = codec::decode::<VisitResult>(&bytes).expect_err("oversized count");
    assert_eq!(err.what, "length prefix exceeds the remaining input");

    // A string one byte longer than what follows it.
    let err = codec::decode::<String>(&[4, b'a', b'b', b'c']).expect_err("oversized string");
    assert_eq!(err.what, "length prefix exceeds the remaining input");
    // The largest varint.
    let mut max = Vec::new();
    u64::MAX.encode(&mut max);
    max.push(b'x');
    assert!(codec::decode::<String>(&max).is_err());
    assert!(codec::decode::<Vec<Cookie>>(&max).is_err());
}

#[test]
fn invalid_utf8_unknown_tags_and_trailing_bytes_are_errors() {
    let visit = exhaustive_visit();
    let bytes = codec::encode(&visit);

    // The page URL's scheme is the first string: length byte, then
    // `https`.
    assert_eq!(&bytes[..6], b"\x05https");
    let mut bad_utf8 = bytes.clone();
    bad_utf8[2] = 0xff;
    let err = codec::decode::<VisitResult>(&bad_utf8).expect_err("invalid UTF-8");
    assert_eq!((err.offset, err.what), (2, "invalid UTF-8 in a string"));

    let mut trailing = bytes.clone();
    trailing.push(0);
    let err = codec::decode::<VisitResult>(&trailing).expect_err("trailing byte");
    assert_eq!(
        (err.offset, err.what),
        (bytes.len(), "trailing bytes after the record")
    );

    for (tag, what) in [
        (codec::decode::<Record>(&[2]).err(), "record"),
        (codec::decode::<TriggerSource>(&[6]).err(), "trigger"),
        (codec::decode::<ResourceType>(&[13]).err(), "resource type"),
        (codec::decode::<SameSite>(&[3]).err(), "same-site"),
        (codec::decode::<Option<u64>>(&[2, 0]).err(), "option"),
        (codec::decode::<bool>(&[2]).err(), "bool"),
    ] {
        assert_eq!(tag.expect(what).what, "unknown enum tag", "{what}");
    }
}

#[test]
fn no_corruption_panics() {
    let samples = [
        exhaustive_visit(),
        tiny_visits().swap_remove(0),
        synthetic_visits(7).swap_remove(3),
    ];
    for visit in &samples {
        let bytes = codec::encode(visit);
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                // Either outcome is fine; a panic fails the test.
                let _ = codec::decode::<VisitResult>(&bad);
            }
        }
    }
    for seed in 0..2000u64 {
        let len = (stable_hash(seed, b"len") % 64) as usize;
        let noise: Vec<u8> = (0..len)
            .map(|i| stable_hash(seed, &i.to_le_bytes()) as u8)
            .collect();
        let _ = codec::decode::<VisitResult>(&noise);
        let _ = codec::decode::<Record>(&noise);
    }
}
