//! Batch publishing: every scheme publishes ordered, nested and
//! multi-document results exactly as the DOM serializes them, and the
//! statements a request runs to publish do not grow with its item count.

use xmlrel::obs::trace::{Event, TraceSink};
use xmlrel::xmlpar::{serialize, Document};
use xmlrel::{all_schemes, XmlStore};

/// `s` has mixed content, so the inline scheme rebuilds a nested `s`
/// from rows an enclosing item's build has already read.
const NESTED_DTD: &str = r#"
<!ELEMENT r (s*)>
<!ELEMENT s (#PCDATA | t | s)*>
<!ATTLIST s n CDATA #REQUIRED>
<!ELEMENT t (#PCDATA)>
"#;

/// `outer` top-level `s` elements, each the head of a chain three `s`
/// deep: `3 * outer` items for `//s`. `word` tells documents apart.
fn nested_doc(outer: usize, word: &str) -> String {
    let mut xml = String::from("<r>");
    for i in 0..outer {
        for depth in 0..3 {
            xml.push_str(&format!(
                r#"<s n="{i}.{depth}"><t>{word} {i} &amp; {depth}</t>tail {depth}"#
            ));
        }
        xml.push_str("</s></s></s>");
    }
    xml.push_str("</r>");
    xml
}

/// The DOM's serialization of every `s`, in document order.
fn dom_items(xml: &str) -> Vec<String> {
    let dom = Document::parse(xml).unwrap();
    dom.iter()
        .filter(|&id| dom.name(id).is_some_and(|q| q.local == "s"))
        .map(|id| serialize::node_to_string(&dom, id))
        .collect()
}

#[test]
fn nested_items_across_two_documents_match_the_dom() {
    // 390 items per document, more than one 200-key IN list.
    let (one, two) = (nested_doc(130, "one"), nested_doc(130, "two"));
    let (one_items, two_items) = (dom_items(&one), dom_items(&two));
    assert_eq!(one_items.len(), 390);
    for scheme in all_schemes(NESTED_DTD).unwrap() {
        let name = scheme.name();
        let mut store = XmlStore::builder(scheme).open().unwrap();
        store.load_str("one", &one).unwrap();
        store.load_str("two", &two).unwrap();
        let items = store.request("//s").run().unwrap().items;
        assert_eq!(items.len(), 2 * one_items.len(), "{name}");
        // The query orders by node id, which the two same-shaped
        // documents share: each document's i-th `s` lands at position
        // 2i or 2i + 1.
        for (i, pair) in items.chunks(2).enumerate() {
            let (a, b) = (&one_items[i], &two_items[i]);
            assert!(
                (&pair[0], &pair[1]) == (a, b) || (&pair[0], &pair[1]) == (b, a),
                "{name}: items {} and {} are {pair:?}, the DOM has {a:?} and {b:?}",
                2 * i,
                2 * i + 1
            );
        }
    }
}

#[test]
fn constructor_node_slots_match_the_dom() {
    let xml = nested_doc(7, "text");
    let dom = Document::parse(&xml).unwrap();
    let root = dom.root();
    let expected: Vec<String> = dom
        .children(root)
        .iter()
        .map(|&s| {
            let n = dom.attribute(s, "n").unwrap();
            let t = dom.children(s)[0];
            format!(
                "<item><n>{n}</n>{}</item>",
                serialize::node_to_string(&dom, t)
            )
        })
        .collect();
    for scheme in all_schemes(NESTED_DTD).unwrap() {
        let name = scheme.name();
        let mut store = XmlStore::builder(scheme).open().unwrap();
        store.load_str("d", &xml).unwrap();
        let items = store
            .request("for $s in /r/s return <item><n>{$s/@n}</n>{$s/t}</item>")
            .run()
            .unwrap()
            .items;
        assert_eq!(items, expected, "{name}");
    }
}

const FLAT_DTD: &str = r#"
<!ELEMENT r (s*)>
<!ELEMENT s (t)>
<!ATTLIST s n CDATA #REQUIRED>
<!ELEMENT t (#PCDATA)>
"#;

fn flat_doc(items: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..items {
        xml.push_str(&format!(r#"<s n="{i}"><t>item {i}</t></s>"#));
    }
    xml.push_str("</r>");
    xml
}

/// The statements planned inside the `publish` span: spans are recorded
/// when they close, so its descendants are the deeper events just before
/// it.
fn publish_statements(events: &[Event]) -> usize {
    let at = events
        .iter()
        .rposition(|e| e.name == "publish")
        .expect("a publish span");
    let depth = events[at].depth;
    events[..at]
        .iter()
        .rev()
        .take_while(|e| e.depth > depth)
        .filter(|e| e.name == "plan")
        .count()
}

#[test]
fn publish_statements_do_not_grow_with_items() {
    for (small, large) in all_schemes(FLAT_DTD)
        .unwrap()
        .into_iter()
        .zip(all_schemes(FLAT_DTD).unwrap())
    {
        let name = small.name();
        let mut counts = Vec::new();
        for (scheme, items) in [(small, 10), (large, 130)] {
            let mut store = XmlStore::builder(scheme).open().unwrap();
            store.load_str("d", &flat_doc(items)).unwrap();
            let sink = TraceSink::new();
            let out = store.request("//s").trace(&sink).run().unwrap();
            assert_eq!(out.items.len(), items, "{name}");
            assert_eq!(sink.dropped(), 0, "{name}");
            counts.push(publish_statements(&sink.events()));
        }
        match name {
            "interval" => assert_eq!(counts, [20, 260], "{name}: two per item"),
            "dewey" => assert_eq!(counts, [10, 130], "{name}: one per item"),
            _ => assert_eq!(counts[0], counts[1], "{name}: grows with items"),
        }
    }
}
