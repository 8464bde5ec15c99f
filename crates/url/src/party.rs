//! First-/third-party classification.

use crate::{psl, Url};
use serde::{Deserialize, Serialize};
use std::fmt;

/// First- vs third-party context of a resource with respect to the page
/// that embeds it, judged at site (eTLD+1) granularity as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Party {
    /// Resource host shares the visited page's eTLD+1.
    First,
    /// Resource host belongs to a different site.
    Third,
}

impl Party {
    /// Classify `resource` relative to the visited `page`.
    ///
    /// ```
    /// use wmtree_url::{Url, Party};
    /// let page = Url::parse("https://news.example.com/").unwrap();
    /// let own = Url::parse("https://static.example.com/app.js").unwrap();
    /// let ad  = Url::parse("https://ads.tracker.net/px.gif").unwrap();
    /// assert_eq!(Party::classify(&page, &own), Party::First);
    /// assert_eq!(Party::classify(&page, &ad), Party::Third);
    /// ```
    pub fn classify(page: &Url, resource: &Url) -> Party {
        if psl::same_site(page.host(), resource.host()) {
            Party::First
        } else {
            Party::Third
        }
    }

    /// Classify by pre-computed sites.
    pub fn classify_sites(page_site: &str, resource_site: &str) -> Party {
        if page_site.eq_ignore_ascii_case(resource_site) {
            Party::First
        } else {
            Party::Third
        }
    }

    /// `true` for [`Party::First`].
    pub fn is_first(self) -> bool {
        matches!(self, Party::First)
    }

    /// `true` for [`Party::Third`].
    pub fn is_third(self) -> bool {
        matches!(self, Party::Third)
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Party::First => "first-party",
            Party::Third => "third-party",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_subdomains_are_first() {
        let page = Url::parse("https://www.shop.de/").unwrap();
        let res = Url::parse("https://cdn.shop.de/i.png").unwrap();
        assert_eq!(Party::classify(&page, &res), Party::First);
        assert!(Party::classify(&page, &res).is_first());
    }

    #[test]
    fn party_cross_site_is_third() {
        let page = Url::parse("https://www.shop.de/").unwrap();
        let res = Url::parse("https://analytics.example.com/t.js").unwrap();
        assert!(Party::classify(&page, &res).is_third());
    }

    #[test]
    fn party_private_registry_siblings_are_third() {
        let page = Url::parse("https://alice.github.io/").unwrap();
        let res = Url::parse("https://bob.github.io/x.js").unwrap();
        assert_eq!(Party::classify(&page, &res), Party::Third);
    }

    #[test]
    fn classify_sites_direct() {
        assert_eq!(Party::classify_sites("a.com", "a.com"), Party::First);
        assert_eq!(Party::classify_sites("a.com", "b.com"), Party::Third);
    }
}
