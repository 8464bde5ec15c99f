//! Content model: what a server response *is* and what it causes the
//! browser to load next.

use serde::{Deserialize, Serialize};
use wmtree_net::ResourceType;

/// Condition under which an embedded resource is actually loaded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// Loaded on every visit.
    Always,
    /// Loaded only after simulated user interaction (lazy loading below
    /// the fold — the paper's NoAction profile misses these).
    RequiresInteraction,
    /// Loaded with the given probability, decided per visit (A/B tests,
    /// ad rotation).
    PerVisit(f64),
    /// Loaded only by browsers at least this new (modern bundle).
    MinVersion(u32),
    /// Loaded only by browsers older than this version (legacy
    /// polyfills).
    BelowVersion(u32),
    /// Skipped when the browser runs headless (crude bot detection).
    NotHeadless,
    /// Loaded with the given probability only after interaction
    /// (lazy-loaded ad slots that also rotate).
    InteractionThenPerVisit(f64),
}

/// One resource a piece of content embeds/loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embed {
    /// Absolute URL, possibly containing per-visit placeholders:
    /// `{sid}` (session id), `{cb}` (cache buster), `{uid}` (user id).
    pub url: String,
    /// Resource type the embedding context implies.
    pub resource_type: ResourceType,
    /// When this embed fires.
    pub condition: Condition,
    /// Millisecond delay after the parent finishes before this load
    /// starts (scripts that set timers, delayed ad refreshes). Loads
    /// whose start would exceed the page timeout never happen.
    pub delay_ms: u64,
}

impl Embed {
    /// An unconditional, immediate embed.
    pub fn always(url: impl Into<String>, resource_type: ResourceType) -> Embed {
        Embed {
            url: url.into(),
            resource_type,
            condition: Condition::Always,
            delay_ms: 0,
        }
    }

    /// Builder: set the condition.
    pub fn when(mut self, condition: Condition) -> Embed {
        self.condition = condition;
        self
    }

    /// Builder: set the delay.
    pub fn after_ms(mut self, delay_ms: u64) -> Embed {
        self.delay_ms = delay_ms;
        self
    }
}

/// Alias kept for API clarity: scripts *spawn* loads.
pub type SpawnSpec = Embed;

/// What a URL serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Content {
    /// An HTML document (main frame or iframe) embedding elements.
    Document {
        /// Elements the parser discovers.
        embeds: Vec<Embed>,
        /// `Set-Cookie` header lines this response carries.
        set_cookies: Vec<String>,
    },
    /// A script; executing it issues further loads (recorded by the
    /// browser with this script as the latest call-stack entry).
    Script {
        /// Loads the script performs.
        actions: Vec<Embed>,
        /// Cookies the script sets via `document.cookie` (recorded as if
        /// set by this script's origin response for simplicity).
        set_cookies: Vec<String>,
    },
    /// A stylesheet; the CSS engine loads fonts/background images, which
    /// Firefox reports through the same call-stack channel (§3.2).
    Stylesheet {
        /// Resources the sheet references.
        loads: Vec<Embed>,
    },
    /// An HTTP redirect (tracking hops, cookie syncing).
    Redirect {
        /// Target URL (may contain placeholders).
        to: String,
        /// `Set-Cookie` lines on the redirect response (ID syncing).
        set_cookies: Vec<String>,
    },
    /// A leaf asset (image, font, media, beacon response, ...).
    Leaf {
        /// Size of the body in bytes (for traffic accounting).
        body_len: u64,
        /// `Set-Cookie` lines (tracking pixels set cookies).
        set_cookies: Vec<String>,
    },
    /// An XHR/API response; JS handling it may issue follow-up loads.
    Api {
        /// Follow-up loads triggered by the handler.
        follow_ups: Vec<Embed>,
        /// `Set-Cookie` lines.
        set_cookies: Vec<String>,
    },
    /// A WebSocket endpoint accepting the handshake; the socket may
    /// push messages that trigger loads (live-content widgets).
    WebSocket {
        /// Loads triggered by pushed messages.
        pushes: Vec<Embed>,
    },
}

impl Content {
    /// A leaf with a given size and no cookies.
    pub fn leaf(body_len: u64) -> Content {
        Content::Leaf {
            body_len,
            set_cookies: Vec::new(),
        }
    }

    /// The `Set-Cookie` lines of this content, if any.
    pub fn set_cookies(&self) -> &[String] {
        match self {
            Content::Document { set_cookies, .. }
            | Content::Script { set_cookies, .. }
            | Content::Redirect { set_cookies, .. }
            | Content::Leaf { set_cookies, .. }
            | Content::Api { set_cookies, .. } => set_cookies,
            Content::Stylesheet { .. } | Content::WebSocket { .. } => &[],
        }
    }

    /// [`embeds`](Self::embeds) by value, for a consumer that owns the
    /// reply and moves the embeds' URLs on.
    pub fn into_embeds(self) -> Vec<Embed> {
        match self {
            Content::Document { embeds, .. } => embeds,
            Content::Script { actions, .. } => actions,
            Content::Stylesheet { loads } => loads,
            Content::Api { follow_ups, .. } => follow_ups,
            Content::WebSocket { pushes } => pushes,
            Content::Redirect { .. } | Content::Leaf { .. } => Vec::new(),
        }
    }

    /// The child embeds this content can trigger (unconditioned view,
    /// used by tests and by tooling that inventories the universe).
    pub fn embeds(&self) -> &[Embed] {
        match self {
            Content::Document { embeds, .. } => embeds,
            Content::Script { actions, .. } => actions,
            Content::Stylesheet { loads } => loads,
            Content::Api { follow_ups, .. } => follow_ups,
            Content::WebSocket { pushes } => pushes,
            Content::Redirect { .. } | Content::Leaf { .. } => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embed_builders() {
        let e = Embed::always("https://a.com/x.js", ResourceType::Script)
            .when(Condition::PerVisit(0.5))
            .after_ms(100);
        assert_eq!(e.condition, Condition::PerVisit(0.5));
        assert_eq!(e.delay_ms, 100);
    }

    #[test]
    fn content_set_cookies_accessor() {
        let c = Content::Leaf {
            body_len: 10,
            set_cookies: vec!["a=1".into()],
        };
        assert_eq!(c.set_cookies(), ["a=1".to_string()]);
        let ws = Content::WebSocket { pushes: vec![] };
        assert!(ws.set_cookies().is_empty());
    }

    #[test]
    fn content_embeds_accessor() {
        let e = Embed::always("https://a.com/i.png", ResourceType::Image);
        let d = Content::Document {
            embeds: vec![e.clone()],
            set_cookies: vec![],
        };
        assert_eq!(d.embeds().len(), 1);
        assert!(Content::leaf(5).embeds().is_empty());
        let r = Content::Redirect {
            to: "https://b.com/".into(),
            set_cookies: vec![],
        };
        assert!(r.embeds().is_empty());
    }
}
