//! The translator's documented limits: unsupported constructs must fail
//! with clear `Translate` errors (never wrong answers), and the supported
//! edge of each feature must keep working.

use shredder::{DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, UniversalScheme};
use xmlrel_core::{CoreError, Scheme, XmlStore};

const DTD: &str = r#"
<!ELEMENT r (a*, b?)>
<!ELEMENT a (#PCDATA)>
<!ATTLIST a x CDATA #IMPLIED>
<!ELEMENT b (#PCDATA)>
"#;

const XML: &str = r#"<r><a x="1">one</a><a x="2">two</a><b>bee</b></r>"#;

fn interval_store() -> XmlStore {
    let mut s = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .open()
        .unwrap();
    s.load_str("d", XML).unwrap();
    s
}

#[test]
fn not_predicate_rejected_cleanly() {
    let s = interval_store();
    let err = s.request("/r/a[not(@x = '1')]").run().unwrap_err();
    assert!(matches!(err, CoreError::Translate(m) if m.contains("not(")));
}

#[test]
fn descendant_inside_predicate_rejected_on_expansion_schemes() {
    let mut s = XmlStore::builder(Scheme::Edge(EdgeScheme::new()))
        .open()
        .unwrap();
    s.load_str("d", XML).unwrap();
    let err = s.request("/r[//a = 'one']/b").run().unwrap_err();
    assert!(matches!(err, CoreError::Translate(_)));
    // The same predicate works on a native scheme.
    let s = interval_store();
    assert_eq!(
        s.request("/r[//a = 'one']/b/text()").run().unwrap().items,
        vec!["bee"]
    );
}

#[test]
fn positional_on_inline_and_universal_rejected() {
    for scheme in [
        Scheme::Inline(InlineScheme::from_dtd_text(DTD).unwrap()),
        Scheme::Universal(UniversalScheme),
    ] {
        let mut s = XmlStore::builder(scheme).open().unwrap();
        s.load_str("d", XML).unwrap();
        let err = s.request("/r/a[2]").run().unwrap_err();
        assert!(
            matches!(err, CoreError::Translate(_)),
            "{}",
            s.scheme().name()
        );
    }
}

#[test]
fn two_positionals_rejected() {
    let s = interval_store();
    let err = s.request("/r/a[1]/b[2]").run().unwrap_err();
    assert!(matches!(err, CoreError::Translate(m) if m.contains("one positional")));
}

#[test]
fn or_predicates_work() {
    let s = interval_store();
    let got = s
        .request("/r/a[@x = '1' or @x = '2']/text()")
        .run()
        .unwrap();
    assert_eq!(got.items, vec!["one", "two"]);
    // An `or` branch over a missing attribute must not drop candidates.
    let got = s
        .request("/r/a[@x = '1' or @missing = 'z']/text()")
        .run()
        .unwrap();
    assert_eq!(got.items, vec!["one"]);
}

#[test]
fn mixed_or_and_parenthesization() {
    let s = interval_store();
    let got = s
        .request("/r/a[(@x = '1' or @x = '2') and contains(., 'o')]/text()")
        .run()
        .unwrap();
    assert_eq!(got.items, vec!["one", "two"]);
}

#[test]
fn self_step_in_predicate_means_own_text() {
    let s = interval_store();
    let got = s.request("/r/a[. = 'two']/@x").run().unwrap();
    assert_eq!(got.items, vec!["2"]);
}

#[test]
fn unknown_variable_in_flwor() {
    let s = interval_store();
    let err = s
        .request("for $v in /r/a where $w/@x = '1' return $v")
        .run()
        .unwrap_err();
    assert!(matches!(err, CoreError::Translate(m) if m.contains("unbound")));
}

#[test]
fn parent_axis_rejected_when_not_normalized_away() {
    let s = interval_store();
    // /r/a/.. normalizes to /r (supported); //a/.. cannot be normalized.
    assert!(s.request("/r/a/../b/text()").run().is_ok());
    let err = s.request("//a/../b").run().unwrap_err();
    assert!(matches!(err, CoreError::Translate(_)));
}

#[test]
fn empty_results_are_empty_not_errors() {
    for scheme in [
        Scheme::Edge(EdgeScheme::new()),
        Scheme::Interval(IntervalScheme::new()),
        Scheme::Dewey(DeweyScheme::new()),
        Scheme::Inline(InlineScheme::from_dtd_text(DTD).unwrap()),
    ] {
        let mut s = XmlStore::builder(scheme).open().unwrap();
        s.load_str("d", XML).unwrap();
        assert!(
            s.request("/r/zzz").run().unwrap().is_empty(),
            "{}",
            s.scheme().name()
        );
        assert!(
            s.request("/zzz/a").run().unwrap().is_empty(),
            "{}",
            s.scheme().name()
        );
        assert!(
            s.request("/r/a[@x = 'nope']").run().unwrap().is_empty(),
            "{}",
            s.scheme().name()
        );
    }
}

#[test]
fn query_against_missing_document() {
    let s = interval_store();
    let err = s.request("/r/a").doc("missing").run().unwrap_err();
    assert!(matches!(err, CoreError::NoSuchDocument(_)));
}

#[test]
fn malformed_query_is_query_error() {
    let s = interval_store();
    assert!(matches!(
        s.request("/r/[2]").run(),
        Err(CoreError::Query(_))
    ));
    assert!(matches!(
        s.request("for $x").run(),
        Err(CoreError::Query(_))
    ));
}

#[test]
fn malformed_document_is_xml_error() {
    let mut s = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .open()
        .unwrap();
    assert!(matches!(
        s.load_str("bad", "<a><b></a>"),
        Err(CoreError::Xml(_))
    ));
}

#[test]
fn expansion_cap_is_enforced() {
    // A corpus with hundreds of distinct label paths under //: the driver
    // must refuse (not hang) past MAX_EXPANSION branches.
    let mut xml = String::from("<root>");
    for i in 0..200 {
        xml.push_str(&format!("<g{i}><leaf/></g{i}>"));
    }
    xml.push_str("</root>");
    let mut s = XmlStore::builder(Scheme::Edge(EdgeScheme::new()))
        .open()
        .unwrap();
    s.load_str("wide", &xml).unwrap();
    let err = s.request("//leaf").run().unwrap_err();
    assert!(matches!(err, CoreError::Translate(m) if m.contains("expansion")));
    // Concrete paths still work.
    assert_eq!(s.request("/root/g7/leaf").count().unwrap(), 1);
}

#[test]
fn flwor_let_binds_single_values() {
    let s = interval_store();
    let got = s
        .request("let $b := /r/b return <out>{$b/text()}</out>")
        .run()
        .unwrap();
    assert_eq!(got.items, vec!["<out>bee</out>"]);
}

#[test]
fn translated_sql_round_trips_through_engine_explain() {
    let s = interval_store();
    let t = s.request("/r/a[@x = '1']/text()").translated().unwrap();
    // The generated SQL must be plannable and EXPLAINable.
    let (joins, text) = s.with_db(|db| {
        let prepared = db.prepare(&t.sql).unwrap();
        let text = reldb::plan::physical::explain_physical(prepared.physical());
        (prepared.logical().join_count(), text)
    });
    assert!(joins >= 1);
    assert!(!text.is_empty());
}
